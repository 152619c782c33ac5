(* The repository benchmark: three workloads, each timed end to end and
   attributed layer by layer.

     perfbench --workload dc-hhvm|obolt-mega|fleet-ingest
               --seed N --seconds S --trace 0|1

   A run sets its workload up [setup_rounds] times (setup_s is the
   median), runs one untimed warm-up repetition, then repeats the timed
   part until [--seconds] have passed and reports medians.  With
   [--trace 0] every repetition is untraced and the end-to-end metrics
   are printed.  With [--trace 1] untraced and traced repetitions
   alternate and the per-layer metrics are printed: traced repetitions
   pass an [Obs] handle into [Bolt.optimize] / [Service.create], their
   spans become the core.*, service.* and fleet.* rows, and the
   difference between the two kinds is the tracing overhead.  Timings the
   benchmark takes around layer calls come from the untraced
   repetitions.

   Every repetition checks the program's outputs, and every
   deterministic value (quality numbers, counts, output bytes) must
   repeat bit for bit across repetitions, traced or not.  A run with a
   failed check reports no metrics.  The last stdout line is one JSON
   object {"correct", "attempted", "failed", "metrics"}; one record per
   run is appended to perfbench/trajectory.jsonl.  Workloads and metrics
   are described in perfbench/README.md. *)

module Obs = Bolt_obs.Obs
module Trace = Bolt_obs.Trace
module Json = Bolt_obs.Json
module Machine = Bolt_sim.Machine
module Objfile = Bolt_obj.Objfile
module Fdata = Bolt_profile.Fdata
module Bolt = Bolt_core.Bolt
module Gen = Bolt_workloads.Gen
module P = Bolt_pipeline.Pipeline
module FS = Bolt_fleet.Fleet_sim
module Merge = Bolt_fleet.Merge
module Service = Bolt_service.Service
module Sketch = Bolt_service.Sketch

(* ---- metric names and units (mirrored by BENCHMARK.json) ---- *)

let end_to_end = [ ("setup_s", "s"); ("wall_s", "s"); ("peak_heap_mb", "MB") ]

(* The spans [Bolt.optimize] opens directly under its root: the front
   half, Table 1 in order, then evaluation and rewrite. *)
let core_stages =
  [
    "verify"; "stale-match"; "build-cfg"; "match-profile"; "bad-layout";
    "dyno-stats-before"; "layout-eval-before"; "strip-rep-ret"; "icf"; "icp";
    "peepholes"; "inline-small"; "simplify-ro-loads"; "icf-2"; "plt";
    "reorder-bbs"; "split-functions"; "peepholes-2"; "uce";
    "reorder-functions"; "sctc"; "frame-opts"; "shrink-wrapping";
    "dyno-stats-after"; "layout-eval-after"; "rewrite";
  ]

let per_layer =
  [
    ("failed_pct", "%"); ("bolt_s", "s"); ("ingest_lines_per_s", "1/s");
    ("speedup_pct", "%"); ("l1i_miss_reduction_pct", "%");
    ("itlb_miss_reduction_pct", "%"); ("dyno_taken_reduction_pct", "%");
    ("hot_text_bytes", "bytes"); ("events_retained_pct", "%");
    ("trace.overhead_wall_s", "s"); ("trace.overhead_bolt_s", "s");
    ("minic.compile_s", "s"); ("sim.record_s", "s"); ("sim.run_s", "s");
    ("sim.instructions", "count"); ("sim.minsn_per_s", "Minsn/s");
    ("sim.l1i_misses_in", "count"); ("sim.l1i_misses_out", "count");
    ("sim.itlb_misses_in", "count"); ("sim.itlb_misses_out", "count");
    ("sim.taken_branches_in", "count"); ("sim.taken_branches_out", "count");
    ("sim.branch_misses_in", "count"); ("sim.branch_misses_out", "count");
    ("profile.convert_s", "s"); ("profile.branch_records", "count");
    ("profile.parse_s", "s"); ("profile.parse_lines_per_s", "1/s");
    ("profile.scan_lines_per_s", "1/s"); ("obj.decode_s", "s");
    ("obj.encode_s", "s"); ("obj.belf_bytes", "bytes");
  ]
  @ List.map (fun s -> ("core." ^ s ^ "_s", "s")) core_stages
  @ [
      ("core.unattributed_s", "s"); ("core.funcs", "count");
      ("core.simple_funcs", "count"); ("core.icf_folded", "count");
      ("core.icp_promoted", "count"); ("core.inlined", "count");
      ("core.quarantined", "count"); ("hfsort.c3_s", "s");
      ("layout.exttsp_before", "score"); ("layout.exttsp_after", "score");
      ("layout.hot_icache_lines", "count"); ("service.step_s_median", "s");
      ("service.step_s_max", "s"); ("service.steps", "count");
      ("service.trigger_latency_ticks", "ticks");
      ("service.sketch_peak_bytes", "bytes");
      ("service.sketch_evictions", "count"); ("fleet.merge_s", "s");
      ("fleet.merge_lines_per_s", "1/s");
    ]

(* ---- measurement helpers ---- *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- machine-speed probe ----

   The box the benchmark runs on is shared, and its speed drifts 1.3-2x
   over minutes with its neighbours' load, in wall and processor time
   alike.  [probe] times a fixed piece of work that calls no code under
   test and does not allocate: random read-modify-writes over a buffer
   outside the OCaml heap, so it is exposed to cache, memory and core
   contention like the workloads are, while nothing the program does to
   its heap changes it (and peak_heap_mb does not count it).  End-to-end times are reported scaled to the
   speed at which the probe takes [probe_ref_s]: t *. probe_ref_s /. probe,
   with the probe taken right before and after the timed interval.  A
   change to the program moves a scaled time exactly as it moves the raw
   one; a change in the machine's speed moves the probe too and cancels
   out. *)
let probe_buf =
  let b = Bigarray.(Array1.create char c_layout (32 lsl 20)) in
  Bigarray.Array1.fill b '\000';
  b

let probe_steps = 500_000
let probe_ref_s = 0.015

let probe () =
  let mask = Bigarray.Array1.dim probe_buf - 1 in
  let t0 = now () in
  let x = ref 1 and acc = ref 0 in
  for _ = 1 to probe_steps do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = !x land mask in
    acc := !acc + Char.code (Bigarray.Array1.get probe_buf i);
    Bigarray.Array1.set probe_buf i (Char.chr (!acc land 255))
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

let scaled t ~probe_s = t *. probe_ref_s /. probe_s

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the "exclusive" method); a single sample is its own quartiles. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0.0)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Worker domains for Bolt.optimize and the service merge: the machine's
   recommended count less one.  On the 2-core box the baselines come
   from, a neighbour's load on either core made the two-domain passes up
   to 2.4x slower while single-domain layers slowed at most 1.45x, so the
   timed work leaves one core free. *)
let recommended_domains = Domain.recommended_domain_count ()
let jobs = max 1 (recommended_domains - 1)
let bolt_opts = { Bolt_core.Opts.default with Bolt_core.Opts.jobs }

(* ---- one repetition ---- *)

type rep = {
  times : (string * float) list;  (** measured; reported as medians *)
  exact : (string * float) list;  (** deterministic; must repeat exactly *)
  output : string;  (** digest of the outputs; must repeat exactly *)
  checks : (string * bool) list;  (** correctness checks on the outputs *)
}

(* Durations of every span called [name] in a traced repetition. *)
let span_durs (obs : Obs.t) name =
  Trace.flatten obs.Obs.trace
  |> List.filter_map (fun (_, (s : Trace.span)) ->
         if s.Trace.sp_name = name && s.Trace.sp_dur >= 0.0 then
           Some s.Trace.sp_dur
         else None)

let optimize obs exe prof =
  timed (fun () ->
      Bolt.optimize ~opts:bolt_opts
        ~obs:(match obs with Some o -> o | None -> Obs.null ())
        exe prof)

(* The traced [Bolt.optimize] collapsed into one row per stage, plus the
   part of bolt_s no stage span covers. *)
let core_rows obs ~bolt_s =
  match obs with
  | None -> []
  | Some o ->
      let rows =
        List.map
          (fun st ->
            ("core." ^ st ^ "_s", List.fold_left ( +. ) 0.0 (span_durs o st)))
          core_stages
      in
      rows
      @ [
          ( "core.unattributed_s",
            bolt_s -. List.fold_left (fun a (_, v) -> a +. v) 0.0 rows );
        ]

let report_counts (r : Bolt.report) =
  [
    ("core.funcs", float_of_int r.Bolt.r_funcs);
    ("core.simple_funcs", float_of_int r.Bolt.r_simple);
    ("core.icf_folded", float_of_int r.Bolt.r_icf_folded);
    ("core.icp_promoted", float_of_int r.Bolt.r_icp_promoted);
    ("core.inlined", float_of_int r.Bolt.r_inlined);
    ("core.quarantined", float_of_int (List.length r.Bolt.r_quarantined));
    ("hot_text_bytes", float_of_int r.Bolt.r_hot_size);
    ( "dyno_taken_reduction_pct",
      P.miss_reduction
        ~before:r.Bolt.r_dyno_before.Bolt_core.Dyno_stats.taken_branches
        ~after:r.Bolt.r_dyno_after.Bolt_core.Dyno_stats.taken_branches );
  ]

let text_funcs exe =
  Objfile.function_symbols exe
  |> List.filter_map (fun (s : Bolt_obj.Types.symbol) ->
         if s.sym_section = ".text" then Some (s.sym_name, max 1 s.sym_size)
         else None)

(* ---- workloads ---- *)

(* A workload's set-up returns the per-layer times it measured and the
   repetition; [idx] numbers repetitions from 0 (the warm-up). *)
type workload = {
  w_name : string;
  w_default_seed : int;
  w_setup :
    seed:int -> (string * float) list * (idx:int -> obs:Obs.t option -> rep);
}

(* dc-hhvm: the paper's data-center flow.  Set-up builds the input the
   way [Experiments.fb_flow] does (-O2, LTO, HFSort C3 link order); a
   repetition records a sampled profile, converts it, optimizes, encodes
   the output, and simulates input and output.

   Programs from different seeds differ several-fold in work per
   main-loop iteration, so the loop count is calibrated: the profiling
   build runs [hhvm_probe_iterations], and the input build gets as many
   iterations as make one simulated run about [hhvm_target_insns]
   instructions.  The loop bound is the only thing [Gen.iterations]
   changes, so both builds share every function and the C3 order carries
   over. *)
let hhvm_funcs = 1_100
let hhvm_modules = 16
let hhvm_probe_iterations = 300
let hhvm_target_insns = 3_000_000

let dc_hhvm ~seed =
  let gen iterations =
    Gen.gen
      {
        Bolt_workloads.Workloads.hhvm_like with
        Gen.seed;
        iterations;
        funcs = hhvm_funcs;
        modules = hhvm_modules;
      }
  in
  let compile (w : Gen.t) cc =
    Bolt_minic.Driver.compile ~options:cc ~externals:w.Gen.externals
      ~extra_objs:w.Gen.extra_objs w.Gen.sources
  in
  let cc0 = { Bolt_minic.Driver.default_options with lto = true } in
  let w0 = gen hhvm_probe_iterations in
  let b0, t_cc0 = timed (fun () -> compile w0 cc0) in
  let prof0, o0 =
    P.profile { P.exe = b0.exe; cc = cc0 } ~input:w0.Gen.input
  in
  let funcs = text_funcs b0.exe in
  let g = Bolt_hfsort.Callgraph.of_profile ~funcs prof0 in
  let order, t_c3 =
    timed (fun () ->
        Bolt_hfsort.Order.order Bolt_hfsort.Order.C3 g
          ~original:(List.map fst funcs))
  in
  let per_iteration =
    max 1 (o0.Machine.counters.instructions / hhvm_probe_iterations)
  in
  let w = gen (max 10 (hhvm_target_insns / per_iteration)) in
  let input = w.Gen.input in
  let b1, t_cc1 =
    timed (fun () -> compile w { cc0 with func_order = Some order })
  in
  let exe = b1.exe in
  let rep ~idx:_ ~obs =
    let t0 = now () in
    let recorded, t_record =
      timed (fun () -> Machine.run ~sampling:P.default_sampling exe ~input)
    in
    let raw =
      match recorded.Machine.profile with
      | Some raw -> raw
      | None -> failwith "dc-hhvm: the sampled run returned no profile"
    in
    let prof, t_convert =
      timed (fun () -> Bolt_profile.Perf2bolt.convert exe raw)
    in
    let (exe', report), t_bolt = optimize obs exe prof in
    let belf, t_encode = timed (fun () -> Objfile.to_string exe') in
    let base, t_run_in = timed (fun () -> Machine.run exe ~input) in
    let opt, t_run_out = timed (fun () -> Machine.run exe' ~input) in
    let wall = now () -. t0 in
    let cr = recorded.Machine.counters
    and ci = base.Machine.counters
    and co = opt.Machine.counters in
    let insns = cr.instructions + ci.instructions + co.instructions in
    let t_sim = t_record +. t_run_in +. t_run_out in
    let lb = Bolt_core.Layout_bbs.snapshot_totals report.Bolt.r_layout_before
    and la = Bolt_core.Layout_bbs.snapshot_totals report.Bolt.r_layout_after in
    let fi = float_of_int in
    {
      times =
        [
          ("wall_s", wall); ("bolt_s", t_bolt); ("sim.record_s", t_record);
          ("sim.run_s", t_run_in +. t_run_out);
          ("sim.minsn_per_s", fi insns /. t_sim /. 1e6);
          ("profile.convert_s", t_convert); ("obj.encode_s", t_encode);
        ]
        @ core_rows obs ~bolt_s:t_bolt;
      exact =
        [
          ("speedup_pct", P.speedup ~baseline:base ~optimized:opt);
          ( "l1i_miss_reduction_pct",
            P.miss_reduction ~before:ci.l1i_misses ~after:co.l1i_misses );
          ( "itlb_miss_reduction_pct",
            P.miss_reduction ~before:ci.itlb_misses ~after:co.itlb_misses );
          ("sim.instructions", fi insns);
          ("sim.l1i_misses_in", fi ci.l1i_misses);
          ("sim.l1i_misses_out", fi co.l1i_misses);
          ("sim.itlb_misses_in", fi ci.itlb_misses);
          ("sim.itlb_misses_out", fi co.itlb_misses);
          ("sim.taken_branches_in", fi ci.taken_branches);
          ("sim.taken_branches_out", fi co.taken_branches);
          ("sim.branch_misses_in", fi ci.branch_misses);
          ("sim.branch_misses_out", fi co.branch_misses);
          ( "profile.branch_records",
            fi (List.length prof.Fdata.branches) );
          ("obj.belf_bytes", fi (String.length belf));
          ("layout.exttsp_before", lb.Bolt_layout.Evaluator.ev_score);
          ("layout.exttsp_after", la.Bolt_layout.Evaluator.ev_score);
          ( "layout.hot_icache_lines",
            fi la.Bolt_layout.Evaluator.ev_icache_lines );
        ]
        @ report_counts report;
      output = Digest.string belf;
      checks =
        [
          ("same-behaviour", P.same_behaviour base opt);
          ("recorded-behaviour", P.same_behaviour base recorded);
          ("no-quarantine", report.Bolt.r_quarantined = []);
          ("no-identity-fallback", not report.Bolt.r_identity_fallback);
        ];
    }
  in
  ([ ("minic.compile_s", t_cc0 +. t_cc1); ("hfsort.c3_s", t_c3) ], rep)

(* A function rewritten in place keeps its symbol's original size while
   its frame descriptor takes the shorter emitted size, which
   [Verify.run] reports as fatal.  Widen such descriptors back to the
   symbol's slot so the check covers everything else; return how many
   were widened. *)
let widen_shrunk_fdes (exe : Objfile.t) =
  let open Bolt_obj.Types in
  let syms = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.sym_kind = Func then Hashtbl.replace syms s.sym_name s)
    exe.Objfile.symbols;
  let widened = ref 0 in
  let fdes =
    List.map
      (fun f ->
        match Hashtbl.find_opt syms f.fde_func with
        | Some s
          when s.sym_value = f.fde_addr && f.fde_size > 0
               && f.fde_size < s.sym_size ->
            incr widened;
            { f with fde_size = s.sym_size }
        | _ -> f)
      exe.Objfile.fdes
  in
  (!widened, { exe with Objfile.fdes })

(* obolt-mega: a large, mostly cold binary straight from [Gen.gen_mega]
   through the obolt I/O path; no simulator. *)
let mega_funcs = 5_000
let mega_fdata_lines = 200_000

let obolt_mega ~seed =
  let m =
    Gen.gen_mega ~seed ~funcs:mega_funcs ~fdata_lines:mega_fdata_lines ()
  in
  let belf = m.Gen.mg_belf and fdata = m.Gen.mg_fdata in
  let lines = float_of_int m.Gen.mg_fdata_lines in
  let rep ~idx:_ ~obs =
    let t0 = now () in
    let exe, t_decode = timed (fun () -> Objfile.of_string belf) in
    let (prof, warnings), t_parse = timed (fun () -> Fdata.parse fdata) in
    let (exe', report), t_bolt = optimize obs exe prof in
    let out, t_encode = timed (fun () -> Objfile.to_string exe') in
    let wall = now () -. t0 in
    let widened, checked = widen_shrunk_fdes exe' in
    let fatal = Bolt_obj.Verify.fatal (Bolt_obj.Verify.run checked) in
    (* HFSort's C3 on this binary's call graph, timed from outside *)
    let c3 =
      match obs with
      | None -> []
      | Some _ ->
          let g =
            Bolt_hfsort.Callgraph.of_profile ~funcs:(text_funcs exe) prof
          in
          [ ("hfsort.c3_s", snd (timed (fun () -> Bolt_hfsort.Order.c3 g))) ]
    in
    {
      times =
        [
          ("wall_s", wall); ("bolt_s", t_bolt); ("obj.decode_s", t_decode);
          ("profile.parse_s", t_parse);
          ("profile.parse_lines_per_s", lines /. t_parse);
          ("obj.encode_s", t_encode);
        ]
        @ core_rows obs ~bolt_s:t_bolt
        @ c3;
      exact =
        ("obj.belf_bytes", float_of_int (String.length out))
        :: ("verify.fde_widened", float_of_int widened)
        :: report_counts report;
      output = Digest.string out;
      checks =
        [
          ("profile-parses-clean", warnings = []);
          ( (match fatal with
            | i :: _ -> "verify-no-fatal: " ^ i.Bolt_obj.Verify.v_what
            | [] -> "verify-no-fatal"),
            fatal = [] );
          ("round-trip", Objfile.to_string (Objfile.of_string out) = out);
        ];
    }
  in
  ([], rep)

(* fleet-ingest: a synthetic fleet tape replayed through the
   continuous-optimization loop in tracking-only mode (no target binary)
   under a tight sketch budget.  Odd repetitions replay the tape in
   reverse order; the merged profile must come out byte-identical. *)
let fleet_scale =
  { FS.default_scale with FS.sc_hosts = 800; sc_funcs = 1_500; sc_lines = 500 }

let sketch_budget = 1024 * 1024

let event_mass (p : Fdata.t) =
  let m = ref 0L in
  List.iter
    (fun (b : Fdata.branch) -> m := Fdata.sat_add !m b.Fdata.br_count)
    p.Fdata.branches;
  List.iter
    (fun (s : Fdata.sample) -> m := Fdata.sat_add !m s.Fdata.sm_count)
    p.Fdata.samples;
  Int64.to_float !m

let fleet_ingest ~seed =
  let raw = FS.scale_tape { fleet_scale with FS.sc_seed = seed } in
  let tape =
    List.map
      (fun (t, h, x) -> { Service.ev_time = t; ev_host = h; ev_text = x })
      raw
  in
  let reversed = List.rev tape in
  let texts = List.map (fun (_, h, x) -> (h, x)) raw in
  let lines =
    float_of_int
      (List.fold_left (fun a (_, x) -> a + Service.count_lines x) 0 texts)
  in
  let config =
    {
      Service.default_config with
      Service.c_topk = 64;
      c_budget = sketch_budget;
      c_jobs = jobs;
      c_trigger =
        {
          Service.default_trigger with
          Service.tr_min_hosts = fleet_scale.FS.sc_hosts / 2;
          tr_min_coverage_pct = 0.25;
        };
    }
  in
  (* the unbounded merge the sketch's retention is judged against *)
  let unbounded_mass = lazy (event_mass (Merge.merge_stream texts)) in
  let rep ~idx ~obs =
    let t0 = now () in
    let svc =
      Service.create ?obs ~config ~expect_build_id:FS.scale_build_id
        ~start_time:FS.base_timestamp ()
    in
    let steps = Service.run svc (if idx mod 2 = 1 then reversed else tape) in
    let wall = now () -. t0 in
    let sk = Service.sketch svc in
    let merged =
      match Service.last_merged svc with Some m -> m | None -> Fdata.empty
    in
    let probes =
      match obs with
      | None -> []
      | Some o ->
          let step_s = span_durs o "service.step" in
          let _, t_scan =
            timed (fun () ->
                List.iter
                  (fun (_, x) ->
                    ignore
                      (Fdata.scan ~branch:ignore ~range:ignore ~sample:ignore x))
                  texts)
          in
          let _, t_merge = timed (fun () -> Merge.merge_stream texts) in
          [
            ("service.step_s_median", median step_s);
            ("service.step_s_max", List.fold_left max 0.0 step_s);
            ("fleet.merge_s", median (span_durs o "fleet.merge"));
            ("profile.scan_lines_per_s", lines /. t_scan);
            ("fleet.merge_lines_per_s", lines /. t_merge);
          ]
    in
    let fi = float_of_int in
    {
      times =
        [ ("wall_s", wall); ("ingest_lines_per_s", lines /. wall) ] @ probes;
      exact =
        [
          ("service.steps", fi (List.length steps));
          ( "service.trigger_latency_ticks",
            fi (Option.value ~default:(-1) (Service.first_trigger_step svc)) );
          ("service.sketch_peak_bytes", fi (Sketch.peak sk));
          ("service.sketch_evictions", fi (Sketch.evictions sk));
          ( "events_retained_pct",
            100.0 *. event_mass merged /. Lazy.force unbounded_mass );
        ];
      output = Digest.string (Fdata.to_string merged);
      checks =
        [
          ("sketch-within-budget", Sketch.peak sk <= Sketch.budget sk);
          ("merged-profile", Option.is_some (Service.last_merged svc));
        ];
    }
  in
  ([], rep)

let workloads =
  [
    { w_name = "dc-hhvm"; w_default_seed = 11; w_setup = dc_hhvm };
    { w_name = "obolt-mega"; w_default_seed = 42; w_setup = obolt_mega };
    { w_name = "fleet-ingest"; w_default_seed = 991; w_setup = fleet_ingest };
  ]

(* ---- the run ---- *)

let setup_rounds = 5
let min_reps = 2 (* per kind, traced and untraced *)

type result = {
  setup_s : float list;  (** scaled by the probe *)
  setup_raw_s : float list;
  setup_rows : (string * float) list;
  reference : rep;
  peak_heap_mb : float;  (** after the set-ups and the warm-up *)
  reps : (bool * rep) list;  (** (traced, repetition), oldest first *)
  attempted : int;
  failures : string list;
}

let run_workload w ~seed ~seconds ~trace : result =
  (* only the last set-up's inputs stay alive *)
  let setup_s = ref [] and setup_raw_s = ref [] in
  let rows = ref [] and last = ref None in
  for _ = 1 to setup_rounds do
    last := None;
    Gc.compact ();
    let p0 = probe () in
    let (r, rep), t = timed (fun () -> w.w_setup ~seed) in
    let probe_s = 0.5 *. (p0 +. probe ()) in
    setup_s := scaled t ~probe_s :: !setup_s;
    setup_raw_s := t :: !setup_raw_s;
    rows := r :: !rows;
    last := Some rep
  done;
  let setup_rows =
    List.map
      (fun (n, _) -> (n, median (List.map (List.assoc n) !rows)))
      (List.hd !rows)
  in
  let rep = Option.get !last in
  let attempted = ref 0 and failures = ref [] in
  let check idx (name, ok) =
    incr attempted;
    if not ok then failures := Printf.sprintf "rep %d: %s" idx name :: !failures
  in
  (* the warm-up: fills caches, forces lazy references, sets the values
     every later repetition must reproduce *)
  let reference = rep ~idx:0 ~obs:None in
  List.iter (check 0) reference.checks;
  (* the peak of one set-up plus one repetition, as a single run of the
     tool would see it; later repetitions grow it by an amount that
     depends on how many fit in the time window *)
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let reps = ref [] in
  let count traced =
    List.length (List.filter (fun (t, _) -> t = traced) !reps)
  in
  let deadline = now () +. seconds in
  let idx = ref 1 in
  while
    now () < deadline
    || count false < min_reps
    || (trace && count true < min_reps)
  do
    let traced = trace && !idx mod 2 = 0 in
    Gc.full_major ();
    let obs = if traced then Some (Obs.create ~name:"perfbench" ()) else None in
    let p0 = probe () in
    let r = rep ~idx:!idx ~obs in
    let probe_s = 0.5 *. (p0 +. probe ()) in
    let wall = List.assoc "wall_s" r.times in
    let r =
      {
        r with
        times =
          ("probe_s", probe_s)
          :: ("wall_scaled_s", scaled wall ~probe_s)
          :: r.times;
      }
    in
    Printf.eprintf "perfbench: rep %d%s wall %.3f s probe %.4f s\n%!" !idx
      (if traced then " (traced)" else "")
      wall probe_s;
    List.iter (check !idx) r.checks;
    check !idx
      ( "repeats-exactly",
        compare r.exact reference.exact = 0 && r.output = reference.output );
    reps := (traced, r) :: !reps;
    incr idx
  done;
  {
    setup_s = List.rev !setup_s;
    setup_raw_s = List.rev !setup_raw_s;
    setup_rows;
    reference;
    peak_heap_mb;
    reps = List.rev !reps;
    attempted = !attempted;
    failures = List.rev !failures;
  }

(* Samples of one timing row from the traced or the untraced
   repetitions. *)
let samples res ~traced name =
  List.filter_map
    (fun (t, r) -> if t = traced then List.assoc_opt name r.times else None)
    res.reps

(* A row's value: deterministic values first, then untraced timings,
   traced timings, set-up timings; 0 where the workload lacks the
   layer. *)
let value res name =
  let med traced =
    match samples res ~traced name with [] -> None | xs -> Some (median xs)
  in
  Option.value ~default:0.0
    (List.find_map
       (fun source -> source ())
       [
         (fun () -> List.assoc_opt name res.reference.exact);
         (fun () -> med false);
         (fun () -> med true);
         (fun () -> List.assoc_opt name res.setup_rows);
       ])

let overhead res name =
  match (samples res ~traced:true name, samples res ~traced:false name) with
  | [], _ | _, [] -> 0.0
  | t, u -> median t -. median u

let metrics res ~trace =
  if not trace then
    [
      ("setup_s", median res.setup_s);
      ("wall_s", value res "wall_scaled_s");
      ("peak_heap_mb", res.peak_heap_mb);
    ]
  else
    List.map
      (fun (name, _) ->
        ( name,
          match name with
          | "failed_pct" ->
              100.0 *. float_of_int (List.length res.failures)
              /. float_of_int res.attempted
          | "trace.overhead_wall_s" -> overhead res "wall_s"
          | "trace.overhead_bolt_s" -> overhead res "bolt_s"
          | _ -> value res name ))
      per_layer

(* ---- output ---- *)

let trajectory_path = Filename.concat "perfbench" "trajectory.jsonl"

(* One line per run: identity, every timing row's median and quartiles
   (untraced and traced apart), and the deterministic values. *)
let append_trajectory res ~workload ~seed ~seconds ~trace ~printed =
  let quart xs =
    let q1, m, q3 = quartiles xs in
    Json.List
      [ Json.Float m; Json.Float q1; Json.Float q3; Json.Int (List.length xs) ]
  in
  let rows traced =
    let names =
      List.sort_uniq compare
        (List.concat_map
           (fun (t, r) -> if t = traced then List.map fst r.times else [])
           res.reps)
    in
    Json.Obj (List.map (fun n -> (n, quart (samples res ~traced n))) names)
  in
  let commit =
    match Bolt_obs.History.detect_git_rev () with "" -> "unknown" | c -> c
  in
  let floats l = Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) l) in
  let record =
    Json.Obj
      [
        ("schema", Json.String "perfbench-trajectory/1");
        ("commit", Json.String commit);
        ("workload", Json.String workload.w_name);
        ("seed", Json.Int seed);
        ("workload_seed", Json.Int (workload.w_default_seed + seed));
        ("trace", Json.Bool trace);
        ("seconds", Json.Float seconds);
        ("jobs", Json.Int jobs);
        ("recommended_domains", Json.Int recommended_domains);
        ("attempted", Json.Int res.attempted);
        ("failed", Json.Int (List.length res.failures));
        ("setup_s", quart res.setup_s);
        ("setup_raw_s", quart res.setup_raw_s);
        ("untraced", rows false);
        ("traced", rows true);
        ("exact", floats res.reference.exact);
        ("metrics", floats printed);
      ]
  in
  try Bolt_obs.History.append trajectory_path record
  with Sys_error e ->
    Printf.eprintf "perfbench: trajectory not written: %s\n%!" e

let () =
  let workload = ref "" and seed = ref 0 in
  let seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME dc-hhvm | obolt-mega | fleet-ingest" );
      ("--seed", Arg.Set_int seed, "N added to the workload's default seed");
      ("--seconds", Arg.Set_float seconds, "S how long to repeat the timed part");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S\n" !workload;
        exit 2
  in
  let trace = !trace = 1 in
  let res =
    run_workload w ~seed:(w.w_default_seed + !seed) ~seconds:!seconds ~trace
  in
  let correct = res.failures = [] in
  List.iter (Printf.eprintf "perfbench: check failed: %s\n") res.failures;
  let printed = if correct then metrics res ~trace else [] in
  let units = if trace then per_layer else end_to_end in
  Printf.eprintf "perfbench: %s seed %d: %d repetitions, setup %s s\n%!"
    w.w_name !seed (List.length res.reps)
    (String.concat " " (List.map (Printf.sprintf "%.3f") res.setup_s));
  append_trajectory res ~workload:w ~seed:!seed ~seconds:!seconds ~trace
    ~printed;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int res.attempted);
            ("failed", Json.Int (List.length res.failures));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, v) ->
                     ( n,
                       Json.Obj
                         [
                           ("value", Json.Float v);
                           ("unit", Json.String (List.assoc n units));
                         ] ))
                   printed) );
          ]));
  if not correct then exit 1
