(* End-to-end experiment driver: the flow every evaluation in the paper
   follows.

     sources --minicc--> exe --bsim+sampling--> raw samples
         --perf2bolt--> fdata --obolt--> exe' --bsim--> counters'

   Helpers here also cover the compiler-PGO leg (instrument, run, dump
   counters, rebuild with the profile) and HFSort-at-link-time (profile a
   binary, compute a function order, relink), which the paper's baselines
   use. *)

module Machine = Bolt_sim.Machine
module Obs = Bolt_obs.Obs

(* Every stage helper takes an optional telemetry bundle; when present the
   stage runs inside a span so an experiment driver gets one trace across
   compile -> profile -> bolt -> re-run.  Omitted, the helpers cost
   nothing (a null no-op handle). *)
let opt_obs = function Some obs -> obs | None -> Obs.null ()

type build = {
  exe : Bolt_obj.Objfile.t;
  cc : Bolt_minic.Driver.options;
}

(* The revision identity a deployment pipeline keys on: the binary's
   build-id stamp plus its CFG fingerprint table.  This is what the fleet
   round ([Monitor.observe]: stale recovery, quality and the rollout
   view) expects for the target build. *)
let build_id (b : build) : string = b.exe.Bolt_obj.Objfile.build_id
let fingerprints (b : build) : Bolt_obj.Fingerprint.t =
  b.exe.Bolt_obj.Objfile.fingerprints

let compile ?obs ?(cc = Bolt_minic.Driver.default_options) ?externals ?extra_objs
    sources : build =
  let obs = opt_obs obs in
  Obs.span obs "compile" (fun () ->
      let r = Bolt_minic.Driver.compile ~options:cc ?externals ?extra_objs sources in
      Obs.incr obs ~by:(List.length sources) "build.sources";
      { exe = r.exe; cc })

let default_sampling =
  {
    Machine.event = Machine.Ev_cycles;
    period = 4001;
    lbr = true;
    precise = true;
  }

(* Run under the sampling profiler and convert to fdata. *)
let profile ?obs ?(sampling = default_sampling) ?config (b : build) ~input :
    Bolt_profile.Fdata.t * Machine.outcome =
  let obs = opt_obs obs in
  Obs.span obs "profile" (fun () ->
      let o = Machine.run ?config ~sampling b.exe ~input in
      match o.Machine.profile with
      | Some raw ->
          Obs.incr obs ~by:raw.Machine.rp_samples "samples.raw";
          let fdata = Bolt_profile.Perf2bolt.convert b.exe raw in
          Obs.incr obs
            ~by:(List.length fdata.Bolt_profile.Fdata.branches)
            "fdata.branch_records";
          (fdata, o)
      | None -> (Bolt_profile.Fdata.empty, o))

(* Profile one simulated host into a fleet shard: same as [profile], but
   the resulting fdata carries a provenance header — the host label, the
   profiled binary's build-id, the collection timestamp and the raw
   sampling-event count — which is what the fleet merger's weighting,
   decay and staleness checks key on. *)
let profile_shard ?obs ?sampling ?config ~host ?(weight = 1.0) ~timestamp
    (b : build) ~input : Bolt_profile.Fdata.t * Machine.outcome =
  let prof, o = profile ?obs ?sampling ?config b ~input in
  let events =
    match o.Machine.profile with
    | Some raw -> Int64.of_int raw.Machine.rp_samples
    | None -> 0L
  in
  let header =
    {
      Bolt_profile.Fdata.hd_host = host;
      hd_build_id = b.exe.Bolt_obj.Objfile.build_id;
      hd_timestamp = timestamp;
      hd_events = events;
      hd_weight = weight;
    }
  in
  ({ prof with Bolt_profile.Fdata.header = Some header }, o)

(* Apply BOLT and return the rewritten binary plus its report.  The obs
   handle is threaded straight into the optimizer, so the experiment
   trace nests every pass span under "bolt".  [jobs] overrides
   [opts.jobs] (worker domains for per-function passes); output is
   byte-identical regardless. *)
let bolt ?obs ?(opts = Bolt_core.Opts.default) ?jobs (b : build)
    (prof : Bolt_profile.Fdata.t) : build * Bolt_core.Bolt.report =
  let obs = opt_obs obs in
  let opts =
    match jobs with None -> opts | Some j -> { opts with Bolt_core.Opts.jobs = j }
  in
  Obs.span obs "bolt" (fun () ->
      let exe', report = Bolt_core.Bolt.optimize ~opts ~obs b.exe prof in
      ({ b with exe = exe' }, report))

let run ?obs ?config ?heatmap (b : build) ~input : Machine.outcome =
  let obs = opt_obs obs in
  Obs.span obs "run" (fun () -> Machine.run ?config ?heatmap b.exe ~input)

(* ---- compiler PGO leg ---- *)

(* Build instrumented, run it, and return the edge profile for Apply. *)
let pgo_profile ?(externals = []) ?(extra_objs = []) ~(cc : Bolt_minic.Driver.options)
    sources ~input : (string * int * int * int) list =
  let opts = { cc with Bolt_minic.Driver.pgo = Bolt_minic.Driver.Instrument } in
  let r = Bolt_minic.Driver.compile ~options:opts ~externals ~extra_objs sources in
  let mapping = match r.mapping with Some m -> m | None -> [] in
  let o = Machine.run r.exe ~input in
  (* read the counter array back from the final memory image *)
  let base =
    match Bolt_obj.Objfile.find_symbol r.exe Bolt_minic.Pgo.counters_symbol with
    | Some s -> s.Bolt_obj.Types.sym_value
    | None -> 0
  in
  let n = Bolt_minic.Pgo.num_counters mapping in
  let counters =
    Array.init n (fun i -> Bolt_sim.Memory.read64 o.Machine.final_mem (base + (8 * i)))
  in
  Bolt_minic.Pgo.profile_of_counters mapping counters

(* ---- HFSort at link time (the data-center baseline) ---- *)

(* Profile a binary and compute an HFSort function order for relinking. *)
let hfsort_order ?(algo = Bolt_hfsort.Order.C3) (b : build) ~input : string list =
  let prof, _ = profile b ~input in
  let funcs =
    Bolt_obj.Objfile.function_symbols b.exe
    |> List.filter_map (fun (s : Bolt_obj.Types.symbol) ->
           if s.sym_section = ".text" then Some (s.sym_name, max 1 s.sym_size) else None)
  in
  let g = Bolt_hfsort.Callgraph.of_profile ~funcs prof in
  Bolt_hfsort.Order.order algo g ~original:(List.map fst funcs)

(* ---- measurement helpers ---- *)

let speedup ~(baseline : Machine.outcome) ~(optimized : Machine.outcome) =
  let b = Machine.cycles baseline.Machine.counters in
  let o = Machine.cycles optimized.Machine.counters in
  if o = 0 then 0.0 else (float_of_int b /. float_of_int o -. 1.0) *. 100.0

let miss_reduction ~before ~after =
  if before = 0 then 0.0
  else 100.0 *. float_of_int (before - after) /. float_of_int before

type metric_deltas = {
  d_cycles : float; (* CPU time reduction, % *)
  d_instructions : float;
  d_branch_miss : float;
  d_l1i_miss : float;
  d_l1d_miss : float;
  d_llc_miss : float;
  d_itlb_miss : float;
  d_dtlb_miss : float;
  d_taken_branches : float;
}

let deltas ~(baseline : Machine.outcome) ~(optimized : Machine.outcome) : metric_deltas =
  let b = baseline.Machine.counters and o = optimized.Machine.counters in
  {
    d_cycles = miss_reduction ~before:(Machine.cycles b) ~after:(Machine.cycles o);
    d_instructions = miss_reduction ~before:b.Machine.instructions ~after:o.Machine.instructions;
    d_branch_miss = miss_reduction ~before:b.Machine.branch_misses ~after:o.Machine.branch_misses;
    d_l1i_miss = miss_reduction ~before:b.Machine.l1i_misses ~after:o.Machine.l1i_misses;
    d_l1d_miss = miss_reduction ~before:b.Machine.l1d_misses ~after:o.Machine.l1d_misses;
    d_llc_miss = miss_reduction ~before:b.Machine.llc_misses ~after:o.Machine.llc_misses;
    d_itlb_miss = miss_reduction ~before:b.Machine.itlb_misses ~after:o.Machine.itlb_misses;
    d_dtlb_miss = miss_reduction ~before:b.Machine.dtlb_misses ~after:o.Machine.dtlb_misses;
    d_taken_branches =
      miss_reduction ~before:b.Machine.taken_branches ~after:o.Machine.taken_branches;
  }

(* Check two runs produced identical observable behaviour: the rewriter
   must never change program semantics. *)
let same_behaviour (a : Machine.outcome) (b : Machine.outcome) =
  a.Machine.exit_code = b.Machine.exit_code
  && a.Machine.output = b.Machine.output
  && a.Machine.uncaught_exception = b.Machine.uncaught_exception
