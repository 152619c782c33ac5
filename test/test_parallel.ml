(* The pass manager and the domain-parallel executor.

   Two properties are load-bearing:
   - determinism: -j1 and -j4 produce byte-identical binaries and
     identical dyno-stats on every example-shaped workload (the
     executor's contract);
   - the registry: Table 1's order is preserved, the enablement
     predicates match the old Opts-flag behaviour flag for flag, and a
     raising registered pass degrades through quarantine with the same
     strict / max-quarantine semantics the sequential pipeline had. *)

module P = Bolt_pipeline.Pipeline
module Passman = Bolt_core.Passman
module Context = Bolt_core.Context
module Opts = Bolt_core.Opts
module Diag = Bolt_core.Diag
module Metrics = Bolt_obs.Metrics

(* ---- determinism: -j1 vs -j4 ---- *)

let quickstart_source =
  {|
global total = 0;
const table = { 5, 3, 8, 1, 9, 2, 7, 4 };

fn hash(x) { return (x * 2654435761) & 1073741823; }

fn classify(x) {
  switch (x % 8) {
    case 0: { return table[0]; }
    case 1: { return table[1]; }
    case 2: { return table[2]; }
    case 3: { return table[3]; }
    case 4: { return table[4]; }
    default: { return x % 3; }
  }
}

fn process(x) {
  var h = hash(x);
  if (h % 100 < 2) { throw h; }
  return classify(h) + (h % 7);
}

fn main() {
  var i = 0;
  while (i < 20000) {
    try { total = total + process(i); }
    catch (e) { total = total + 1; }
    i = i + 1;
  }
  out total;
  return 0;
}
|}

(* The output bytes, the report, and the obs metrics registry (every
   counter and gauge, each pass's funcs_modified among them) of a run
   with a live [Obs]. *)
let bolt_at ~jobs build prof =
  let obs = Bolt_obs.Obs.create ~name:"bolt" () in
  let b, r = P.bolt ~obs ~jobs build prof in
  ( Bolt_obj.Objfile.to_string b.P.exe,
    r,
    Bolt_obs.Json.to_string (Metrics.to_json obs.Bolt_obs.Obs.metrics) )

(* Returns the -j1 report. *)
let check_deterministic name build prof =
  let out1, r1, m1 = bolt_at ~jobs:1 build prof in
  let out4, r4, m4 = bolt_at ~jobs:4 build prof in
  Alcotest.(check bool) (name ^ ": byte-identical output") true (out1 = out4);
  Alcotest.(check string) (name ^ ": identical obs metrics") m1 m4;
  Alcotest.(check bool)
    (name ^ ": identical dyno-stats (before)")
    true
    (r1.Bolt_core.Bolt.r_dyno_before = r4.Bolt_core.Bolt.r_dyno_before);
  Alcotest.(check bool)
    (name ^ ": identical dyno-stats (after)")
    true
    (r1.Bolt_core.Bolt.r_dyno_after = r4.Bolt_core.Bolt.r_dyno_after);
  Alcotest.(check bool)
    (name ^ ": same quarantine verdicts")
    true
    (r1.Bolt_core.Bolt.r_quarantined = r4.Bolt_core.Bolt.r_quarantined);
  r1

let gen_build ?input params =
  let w = Bolt_workloads.Gen.gen params in
  let cc = Bolt_minic.Driver.default_options in
  let r =
    Bolt_minic.Driver.compile ~options:cc
      ~externals:w.Bolt_workloads.Gen.externals
      ~extra_objs:w.Bolt_workloads.Gen.extra_objs w.Bolt_workloads.Gen.sources
  in
  let build = { P.exe = r.exe; cc } in
  let input =
    match input with Some i -> i | None -> w.Bolt_workloads.Gen.input
  in
  let prof, _ = P.profile build ~input in
  (build, prof)

let test_det_quickstart () =
  let build = P.compile [ ("quickstart", quickstart_source) ] in
  let prof, _ = P.profile build ~input:[||] in
  ignore (check_deterministic "quickstart" build prof)

let test_det_datacenter () =
  let build, prof =
    gen_build
      {
        Bolt_workloads.Workloads.hhvm_like with
        Bolt_workloads.Gen.funcs = 400;
        modules = 8;
        iterations = 2_000;
      }
  in
  (* ICP and inline-small run on worker domains too: this input gives
     both work *)
  let r = check_deterministic "datacenter" build prof in
  Alcotest.(check bool) "datacenter: ICP promotes" true (r.Bolt_core.Bolt.r_icp_promoted > 0);
  Alcotest.(check bool) "datacenter: inline-small inlines" true
    (r.Bolt_core.Bolt.r_inlined > 0)

let test_det_compiler () =
  let build, prof =
    gen_build
      ~input:(Bolt_workloads.Workloads.token_input ~seed:9 ~n:2_000 ~mix:60)
      {
        Bolt_workloads.Workloads.clang_like with
        Bolt_workloads.Gen.funcs = 350;
        modules = 7;
      }
  in
  ignore (check_deterministic "compiler" build prof)

let test_det_multifeed () =
  let build, prof =
    gen_build
      {
        Bolt_workloads.Workloads.multifeed2 with
        Bolt_workloads.Gen.funcs = 300;
        modules = 6;
        iterations = 1_500;
      }
  in
  ignore (check_deterministic "multifeed" build prof)

(* ---- the registry ---- *)

let table1_names = List.map (fun p -> p.Passman.p_name) Passman.table1

let test_table1_order () =
  Alcotest.(check (list string))
    "Table 1 order"
    [
      "strip-rep-ret";
      "icf";
      "icp";
      "peepholes";
      "inline-small";
      "simplify-ro-loads";
      "icf-2";
      "plt";
      "reorder-bbs";
      "split-functions";
      "peepholes-2";
      "uce";
      "reorder-functions";
      "sctc";
      "frame-opts";
      "shrink-wrapping";
    ]
    table1_names

(* Each descriptor's predicate must match the Opts flag the old inline
   driver consulted, flag for flag: enabled under [default], disabled
   when exactly that flag is turned off. *)
let test_enabled_predicates () =
  let check name ~off =
    let p = Passman.find name in
    Alcotest.(check bool) (name ^ " on by default") true
      (p.Passman.p_enabled Opts.default);
    Alcotest.(check bool) (name ^ " off") false (p.Passman.p_enabled off)
  in
  let d = Opts.default in
  check "strip-rep-ret" ~off:{ d with strip_rep_ret = false };
  check "icf" ~off:{ d with icf = false };
  check "icf-2" ~off:{ d with icf = false };
  check "icp" ~off:{ d with icp = false };
  check "peepholes" ~off:{ d with peepholes = false };
  check "peepholes-2" ~off:{ d with peepholes = false };
  check "inline-small" ~off:{ d with inline_small = false };
  check "simplify-ro-loads" ~off:{ d with simplify_ro_loads = false };
  check "plt" ~off:{ d with plt = false };
  check "reorder-bbs" ~off:{ d with reorder_blocks = Opts.Rb_none };
  check "split-functions" ~off:{ d with split_functions = Opts.Split_none };
  check "uce" ~off:{ d with uce = false };
  check "sctc" ~off:{ d with sctc = false };
  check "frame-opts" ~off:{ d with frame_opts = false };
  check "shrink-wrapping" ~off:{ d with shrink_wrapping = false };
  (* reorder-functions always runs: under Rf_none it still computes the
     identity layout *)
  Alcotest.(check bool) "reorder-functions always on" true
    ((Passman.find "reorder-functions").Passman.p_enabled
       { d with reorder_functions = Opts.Rf_none });
  (* under Opts.none every optimization pass is off *)
  Alcotest.(check (list string))
    "Opts.none leaves only reorder-functions"
    [ "reorder-functions" ]
    (Passman.table1
    |> List.filter (fun p -> p.Passman.p_enabled Opts.none)
    |> List.map (fun p -> p.Passman.p_name))

(* A built environment over the quickstart program, ready for custom
   passes. *)
let mk_env ?(opts = { Opts.default with Opts.jobs = 4 }) () =
  let build = P.compile [ ("t", quickstart_source) ] in
  let prof, _ = P.profile build ~input:[||] in
  let ctx = Context.create ~opts build.P.exe in
  let env = Passman.make_env ctx prof in
  Passman.run env Passman.pre_passes;
  env

(* A registered pass that raises is caught by the quarantine barrier:
   every affected function is demoted, the run completes, and the
   strict / max-quarantine escalations raise exactly as the sequential
   pipeline's did (obolt maps them to exit codes 4 and 5). *)
let boom = Passman.pf "boom" (fun _ -> true) (fun _env _sh _fb -> failwith "kaboom")

let test_raising_pass_quarantined () =
  let env = mk_env () in
  let ctx = env.Passman.ctx in
  let simple_before = List.length (Context.simple_funcs ctx) in
  Alcotest.(check bool) "has simple functions" true (simple_before > 0);
  Passman.run_pass env boom;
  Alcotest.(check int) "every visited function quarantined" simple_before
    (Diag.quarantined_count ctx.Context.diag);
  Alcotest.(check int) "no simple functions left" 0
    (List.length (Context.simple_funcs ctx))

let test_raising_pass_strict () =
  let env = mk_env ~opts:{ Opts.default with Opts.jobs = 4; strict = true } () in
  match Passman.run_pass env boom with
  | () -> Alcotest.fail "strict mode must raise"
  | exception Diag.Strict_error _ -> ()

let test_raising_pass_quarantine_limit () =
  let env =
    mk_env ~opts:{ Opts.default with Opts.jobs = 4; max_quarantine = Some 1 } ()
  in
  Alcotest.(check bool) "budget smaller than the function count" true
    (List.length (Context.simple_funcs env.Passman.ctx) > 1);
  match Passman.run_pass env boom with
  | () -> Alcotest.fail "quarantine budget must abort"
  | exception Diag.Quarantine_limit _ -> ()

(* Per-domain shard registries must merge without losing counts: a pass
   bumping one counter per function over 4 domains lands the exact
   function count in [Context.stats]. *)
let test_shard_counter_merge () =
  let env = mk_env () in
  let ctx = env.Passman.ctx in
  let n = List.length (Context.simple_funcs ctx) in
  let count =
    Passman.pf "count-test"
      (fun _ -> true)
      (fun _env sh _fb -> Context.sh_incr sh "pass.count-test.n")
  in
  Passman.run_pass env count;
  Alcotest.(check int) "no torn counts across domains" n
    (Metrics.counter ctx.Context.stats "pass.count-test.n")

let suite =
  [
    Alcotest.test_case "det-quickstart" `Quick test_det_quickstart;
    Alcotest.test_case "det-datacenter" `Slow test_det_datacenter;
    Alcotest.test_case "det-compiler" `Slow test_det_compiler;
    Alcotest.test_case "det-multifeed" `Slow test_det_multifeed;
    Alcotest.test_case "table1-order" `Quick test_table1_order;
    Alcotest.test_case "enabled-predicates" `Quick test_enabled_predicates;
    Alcotest.test_case "raising-pass-quarantined" `Quick
      test_raising_pass_quarantined;
    Alcotest.test_case "raising-pass-strict" `Quick test_raising_pass_strict;
    Alcotest.test_case "raising-pass-limit" `Quick
      test_raising_pass_quarantine_limit;
    Alcotest.test_case "shard-counter-merge" `Quick test_shard_counter_merge;
  ]
