(* Integration tests over the experiment pipeline and the workload
   generators: determinism, behaviour preservation under the full flow,
   and the qualitative claims each experiment must reproduce. *)

module E = Bolt_pipeline.Experiments
module P = Bolt_pipeline.Pipeline

let small_params =
  {
    Bolt_workloads.Workloads.multifeed2 with
    Bolt_workloads.Gen.funcs = 300;
    modules = 6;
    iterations = 1_500;
    dup_plain_families = 2;
    dup_switch_families = 2;
    asm_dispatchers = 1;
  }

let test_generator_deterministic () =
  let a = Bolt_workloads.Gen.gen small_params in
  let b = Bolt_workloads.Gen.gen small_params in
  Alcotest.(check bool) "same sources" true
    (a.Bolt_workloads.Gen.sources = b.Bolt_workloads.Gen.sources)

let test_generator_compiles_and_runs () =
  let w = Bolt_workloads.Gen.gen small_params in
  let r =
    Bolt_minic.Driver.compile ~externals:w.Bolt_workloads.Gen.externals
      ~extra_objs:w.Bolt_workloads.Gen.extra_objs w.Bolt_workloads.Gen.sources
  in
  let o = Bolt_sim.Machine.run ~fuel:200_000_000 r.exe ~input:w.Bolt_workloads.Gen.input in
  Alcotest.(check bool) "produces output" true (o.Bolt_sim.Machine.output <> []);
  Alcotest.(check bool) "no uncaught" false o.Bolt_sim.Machine.uncaught_exception

let test_full_flow_preserves_behaviour () =
  let r = E.fb_flow ~lto:false ~name:"small" small_params in
  Alcotest.(check bool) "behaviour identical" true r.E.fb_behaviour_ok;
  Alcotest.(check bool) "BOLT wins" true (r.E.fb_speedup > 0.0)

let test_full_flow_with_lto () =
  let r = E.fb_flow ~lto:true ~name:"small-lto" small_params in
  Alcotest.(check bool) "behaviour identical (LTO)" true r.E.fb_behaviour_ok

let test_fig2_mechanism () =
  (* the motivating example: BOLT, given only per-address samples of the
     plain binary, must recover the layout that instrumentation-PGO
     needs a recompile (and per-copy edge counters) to reach *)
  let r = E.fig2 () in
  Alcotest.(check bool) "behaviour" true r.E.f2_behaviour_ok;
  (* compile-time PGO collapses both inlined copies' conditionals *)
  Alcotest.(check bool) "PGO collapses taken conditionals" true
    (r.E.f2_pgo_taken * 10 <= r.E.f2_plain_taken * 6);
  (* so must BOLT, from samples alone (the rotated loop's bottom-of-loop
     conditional stays taken, so at least half vanish, not all) *)
  Alcotest.(check bool) "BOLT collapses taken conditionals" true
    (r.E.f2_bolt_taken * 10 <= r.E.f2_plain_taken * 6);
  (* and the loop rotation is something the compile-time layout missed:
     BOLT's total taken branches drop below both other builds *)
  Alcotest.(check bool) "BOLT cuts total taken branches" true
    (r.E.f2_bolt_branches < r.E.f2_plain_branches
    && r.E.f2_bolt_branches < r.E.f2_pgo_branches);
  Alcotest.(check bool) "BOLT speeds up the plain build" true
    (r.E.f2_bolt_cycles < r.E.f2_plain_cycles)

let test_icf_on_top_of_linker () =
  let r =
    E.icf_experiment
      ~params:{ small_params with Bolt_workloads.Gen.dup_plain_families = 4;
                dup_plain_copies = 3; dup_switch_families = 4; dup_switch_copies = 3 }
      ()
  in
  Alcotest.(check bool) "linker folded some" true (r.E.icf_linker_folded > 0);
  Alcotest.(check bool) "BOLT folded more" true (r.E.icf_bolt_folded > 0);
  Alcotest.(check bool) "output behaves like the input" true r.E.icf_behaviour_ok

let test_pgo_complements_bolt () =
  (* tiny compiler-flow: all three variants must beat the baseline and the
     stacked variant must beat PGO alone on the training input *)
  let params =
    { Bolt_workloads.Workloads.gcc_like with Bolt_workloads.Gen.funcs = 250; modules = 5 }
  in
  let cc = E.compiler_flow ~quick:true ~lto:false params in
  let get name =
    List.find (fun (v : E.cc_variant) -> v.E.cv_name = name) cc.E.cc_variants
  in
  let full v = List.assoc "full-build" v.E.cv_speedups in
  let bolt = full (get "BOLT") and pgo = full (get "PGO") and both = full (get "PGO+BOLT") in
  Alcotest.(check bool) "BOLT beats baseline" true (bolt > 0.0);
  Alcotest.(check bool) "PGO beats baseline" true (pgo > 0.0);
  Alcotest.(check bool) "stacking beats PGO alone" true (both > pgo)

let test_heatmap_concentration () =
  let r = E.fb_flow ~lto:false ~heatmap:true ~name:"small" small_params in
  let h = E.fig9_of r in
  (* BOLT must shrink the extent of touched code (Figure 9's packing) *)
  Alcotest.(check bool) "hot extent shrinks" true
    (h.E.h_extent_after < h.E.h_extent_before)

let test_non_lbr_worse_than_lbr () =
  let rows = E.fig11 ~params:small_params () in
  let both = List.assoc "both" rows in
  let cpu = List.assoc "cpu-time" both in
  (* LBR-driven build should not be slower than the non-LBR-driven one *)
  Alcotest.(check bool) "lbr at least as good" true (cpu >= -1.0)

let suite =
  [
    Alcotest.test_case "generator-deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "generator-runs" `Quick test_generator_compiles_and_runs;
    Alcotest.test_case "full-flow" `Slow test_full_flow_preserves_behaviour;
    Alcotest.test_case "full-flow-lto" `Slow test_full_flow_with_lto;
    Alcotest.test_case "fig2-mechanism" `Slow test_fig2_mechanism;
    Alcotest.test_case "icf-stacking" `Slow test_icf_on_top_of_linker;
    Alcotest.test_case "pgo-complements" `Slow test_pgo_complements_bolt;
    Alcotest.test_case "heatmap-concentration" `Slow test_heatmap_concentration;
    Alcotest.test_case "lbr-vs-nolbr" `Slow test_non_lbr_worse_than_lbr;
  ]
