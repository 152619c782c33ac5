(* One experiment per table/figure of the paper's evaluation (§6).

   Each experiment returns structured rows together with the paper's
   reported numbers, so the harness can print measured-vs-paper tables.
   Absolute magnitudes differ (our substrate is a simulator, not a Xeon
   fleet); what must reproduce is the shape: who wins, roughly by how
   much, and in which direction each micro-architecture metric moves. *)

module Machine = Bolt_sim.Machine

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let n = float_of_int (List.length xs) in
      exp (List.fold_left (fun a x -> a +. log (1.0 +. (x /. 100.0))) 0.0 xs /. n) -. 1.0
      |> fun g -> g *. 100.0

(* ---- shared flows ---- *)

type fb_result = {
  fb_name : string;
  fb_speedup : float; (* BOLT over the HFSort(+LTO) baseline, % *)
  fb_deltas : Pipeline.metric_deltas;
  fb_report : Bolt_core.Bolt.report;
  fb_base : Machine.outcome;
  fb_opt : Machine.outcome;
  fb_base_exe : Bolt_obj.Objfile.t;
  fb_opt_exe : Bolt_obj.Objfile.t;
  fb_behaviour_ok : bool;
}

(* The Figure-5 flow: -O2 (+LTO for hhvm) + HFSort-at-link-time baseline,
   then BOLT on top of it. *)
let fb_flow ?(lto = false) ?(heatmap = false) ?(bolt_opts = Bolt_core.Opts.default)
    ~name (params : Bolt_workloads.Gen.params) : fb_result =
  let w = Bolt_workloads.Gen.gen params in
  let compile cc =
    Pipeline.compile ~cc ~externals:w.externals ~extra_objs:w.extra_objs w.sources
  in
  let cc0 = { Bolt_minic.Driver.default_options with lto } in
  (* HFSort at link time, as in [25] *)
  let order = Pipeline.hfsort_order (compile cc0) ~input:w.input in
  let b1 = compile { cc0 with func_order = Some order } in
  let base = Pipeline.run ~heatmap b1 ~input:w.input in
  let prof1, _ = Pipeline.profile b1 ~input:w.input in
  let b2, report = Pipeline.bolt ~opts:bolt_opts b1 prof1 in
  let opt = Pipeline.run ~heatmap b2 ~input:w.input in
  {
    fb_name = name;
    fb_speedup = Pipeline.speedup ~baseline:base ~optimized:opt;
    fb_deltas = Pipeline.deltas ~baseline:base ~optimized:opt;
    fb_report = report;
    fb_base = base;
    fb_opt = opt;
    fb_base_exe = b1.exe;
    fb_opt_exe = b2.exe;
    fb_behaviour_ok = Pipeline.same_behaviour base opt;
  }

(* ---- Figure 5: data-center workloads ---- *)

(* Paper's reported speedups (read off Figure 5). *)
let fig5_paper =
  [ ("hhvm", 8.0); ("tao", 6.4); ("proxygen", 4.4); ("multifeed1", 4.7); ("multifeed2", 3.7) ]

let fig5 ?(quick = false) () =
  let scale p =
    if quick then { p with Bolt_workloads.Gen.iterations = p.Bolt_workloads.Gen.iterations / 4 }
    else p
  in
  List.map
    (fun (name, params) ->
      fb_flow ~lto:(name = "hhvm") ~name (scale params))
    Bolt_workloads.Workloads.fb_workloads

(* ---- Figure 6: micro-architecture metrics for hhvm ---- *)

let fig6_paper =
  [
    ("branch-miss", 11.0);
    ("d-cache-miss", 1.0);
    ("i-cache-miss", 18.0);
    ("i-tlb-miss", 16.0);
    ("d-tlb-miss", 6.0);
    ("llc-miss", 5.5);
  ]

let fig6_rows (r : fb_result) =
  let d = r.fb_deltas in
  [
    ("branch-miss", d.Pipeline.d_branch_miss);
    ("d-cache-miss", d.Pipeline.d_l1d_miss);
    ("i-cache-miss", d.Pipeline.d_l1i_miss);
    ("i-tlb-miss", d.Pipeline.d_itlb_miss);
    ("d-tlb-miss", d.Pipeline.d_dtlb_miss);
    ("llc-miss", d.Pipeline.d_llc_miss);
  ]

(* ---- Figures 7/8: compilers ---- *)

type cc_variant = { cv_name : string; cv_speedups : (string * float) list }

type cc_result = {
  cc_variants : cc_variant list;
  cc_bolt_report : Bolt_core.Bolt.report; (* BOLT over baseline *)
  cc_pgobolt_report : Bolt_core.Bolt.report; (* BOLT over PGO(+LTO) *)
}

let compiler_inputs ?(quick = false) seed =
  let q n = if quick then n / 3 else n in
  [
    ("input1", Bolt_workloads.Workloads.token_input ~seed:(seed + 1) ~n:(q 2_000) ~mix:70);
    ("input2", Bolt_workloads.Workloads.token_input ~seed:(seed + 2) ~n:(q 5_000) ~mix:45);
    ("input3", Bolt_workloads.Workloads.token_input ~seed:(seed + 3) ~n:(q 12_000) ~mix:25);
    ("full-build", Bolt_workloads.Workloads.token_input ~seed:(seed + 4) ~n:(q 25_000) ~mix:50);
  ]

let compiler_flow ?(quick = false) ~(lto : bool) (params : Bolt_workloads.Gen.params) :
    cc_result =
  let w = Bolt_workloads.Gen.gen params in
  let inputs = compiler_inputs ~quick params.Bolt_workloads.Gen.seed in
  let train = List.assoc "full-build" inputs in
  let compile cc =
    Pipeline.compile ~cc ~externals:w.externals ~extra_objs:w.extra_objs w.sources
  in
  let cc_base = Bolt_minic.Driver.default_options in
  let b_base = compile cc_base in
  let cycles b input = Machine.cycles (Pipeline.run b ~input).Machine.counters in
  let base_cycles = List.map (fun (n, i) -> (n, cycles b_base i)) inputs in
  let speedups_of b =
    List.map
      (fun (n, i) ->
        let c = cycles b i in
        let c0 = List.assoc n base_cycles in
        (n, 100.0 *. (float_of_int c0 /. float_of_int c -. 1.0)))
      inputs
  in
  (* BOLT on the plain baseline *)
  let prof_base, _ = Pipeline.profile b_base ~input:train in
  let b_bolt, rep_bolt = Pipeline.bolt b_base prof_base in
  (* PGO (+LTO) *)
  let edge_prof =
    Pipeline.pgo_profile ~externals:w.externals ~extra_objs:w.extra_objs
      ~cc:{ cc_base with lto } w.sources ~input:train
  in
  let b_pgo = compile { cc_base with pgo = Bolt_minic.Driver.Apply edge_prof; lto } in
  (* BOLT on PGO(+LTO) *)
  let prof_pgo, _ = Pipeline.profile b_pgo ~input:train in
  let b_pgobolt, rep_pgobolt = Pipeline.bolt b_pgo prof_pgo in
  let pgo_name = if lto then "PGO+LTO" else "PGO" in
  {
    cc_variants =
      [
        { cv_name = "BOLT"; cv_speedups = speedups_of b_bolt };
        { cv_name = pgo_name; cv_speedups = speedups_of b_pgo };
        { cv_name = pgo_name ^ "+BOLT"; cv_speedups = speedups_of b_pgobolt };
      ];
    cc_bolt_report = rep_bolt;
    cc_pgobolt_report = rep_pgobolt;
  }

let fig7_paper =
  [
    ("BOLT", [ ("input1", 52.14); ("input2", 40.15); ("input3", 22.27); ("full-build", 36.22) ]);
    ("PGO+LTO", [ ("input1", 39.92); ("input2", 30.54); ("input3", 21.52); ("full-build", 29.93) ]);
    ( "PGO+LTO+BOLT",
      [ ("input1", 68.49); ("input2", 53.25); ("input3", 33.98); ("full-build", 49.42) ] );
  ]

let fig8_paper =
  [
    ("BOLT", [ ("input1", 24.28); ("input2", 24.12); ("input3", 13.99); ("full-build", 21.26) ]);
    ("PGO", [ ("input1", 16.46); ("input2", 17.28); ("input3", 12.42); ("full-build", 15.73) ]);
    ( "PGO+BOLT",
      [ ("input1", 27.08); ("input2", 27.52); ("input3", 17.76); ("full-build", 24.35) ] );
  ]

let fig7 ?quick () = compiler_flow ?quick ~lto:true Bolt_workloads.Workloads.clang_like
let fig8 ?quick () = compiler_flow ?quick ~lto:false Bolt_workloads.Workloads.gcc_like

(* ---- Table 2: dyno-stats ---- *)

let table2_paper =
  [
    ("executed forward branches", -1.6, -1.0);
    ("taken forward branches", -83.9, -61.1);
    ("executed backward branches", 9.6, 6.0);
    ("taken backward branches", -9.2, -21.8);
    ("executed unconditional branches", -66.6, -36.3);
    ("executed instructions", -1.2, -0.7);
    ("total branches", -7.3, -2.2);
    ("taken branches", -69.8, -44.3);
    ("non-taken conditional branches", 60.0, 13.7);
    ("taken conditional branches", -70.6, -46.6);
  ]

let table2_rows (cc : cc_result) =
  let delta (r : Bolt_core.Bolt.report) =
    List.map2
      (fun (name, b) (_, a) -> (name, Bolt_core.Dyno_stats.pct_delta b a))
      (Bolt_core.Dyno_stats.rows r.Bolt_core.Bolt.r_dyno_before)
      (Bolt_core.Dyno_stats.rows r.Bolt_core.Bolt.r_dyno_after)
  in
  (delta cc.cc_bolt_report, delta cc.cc_pgobolt_report)

(* ---- Figure 9: heat maps ---- *)

type fig9_result = {
  h_before : Bolt_core.Heatmap.t;
  h_after : Bolt_core.Heatmap.t;
  h_prefix_before : float; (* heat in the first 1/16 of the text *)
  h_prefix_after : float;
  h_extent_before : int;
  h_extent_after : int;
}

let fig9_of (r : fb_result) =
  let span exe =
    List.fold_left
      (fun a (s : Bolt_obj.Types.section) ->
        if s.sec_kind = Bolt_obj.Types.Text then max a (s.sec_addr + s.sec_size) else a)
      0 exe.Bolt_obj.Objfile.sections
    - Bolt_obj.Layout.text_base
  in
  let mk exe (o : Machine.outcome) =
    match o.Machine.heat with
    | Some h ->
        Bolt_core.Heatmap.build ~base:Bolt_obj.Layout.text_base ~span:(span exe) h
    | None ->
        Bolt_core.Heatmap.build ~base:Bolt_obj.Layout.text_base ~span:1 (Hashtbl.create 1)
  in
  (* use the LARGER of the two spans for both maps so cells are comparable *)
  let before = mk r.fb_base_exe r.fb_base in
  let after = mk r.fb_opt_exe r.fb_opt in
  {
    h_before = before;
    h_after = after;
    h_prefix_before = Bolt_core.Heatmap.heat_in_prefix before (1.0 /. 16.0);
    h_prefix_after = Bolt_core.Heatmap.heat_in_prefix after (1.0 /. 16.0);
    h_extent_before = Bolt_core.Heatmap.hot_extent before;
    h_extent_after = Bolt_core.Heatmap.hot_extent after;
  }

(* ---- Figure 11 / §6.5: the importance of LBRs ---- *)

let fig11_paper =
  (* improvement from using LBRs, percent, per scenario *)
  [
    ("functions", [ ("instructions", 0.52); ("branch-miss", 0.66); ("i-cache-miss", 0.03); ("llc-miss", 1.75); ("i-tlb-miss", 0.09); ("cpu-time", 0.28) ]);
    ("bbs", [ ("instructions", 2.88); ("branch-miss", 2.43); ("i-cache-miss", 1.03); ("llc-miss", 5.39); ("i-tlb-miss", 1.71); ("cpu-time", 0.35) ]);
    ("both", [ ("instructions", 2.82); ("branch-miss", 5.16); ("i-cache-miss", 1.41); ("llc-miss", 8.2); ("i-tlb-miss", 2.16); ("cpu-time", 2.16) ]);
  ]

let scenario_opts = function
  | "functions" ->
      {
        Bolt_core.Opts.none with
        reorder_functions = Bolt_core.Opts.default.reorder_functions;
        split_all_cold = true;
      }
  | "bbs" ->
      { Bolt_core.Opts.default with reorder_functions = Bolt_core.Opts.Rf_none; split_all_cold = false }
  | _ -> Bolt_core.Opts.default

let fig11 ?(params = { Bolt_workloads.Workloads.hhvm_like with iterations = 6_000 }) () =
  let w = Bolt_workloads.Gen.gen params in
  let b = Pipeline.compile ~externals:w.externals ~extra_objs:w.extra_objs w.sources in
  let profile ~lbr =
    let sampling = { Pipeline.default_sampling with Machine.lbr } in
    fst (Pipeline.profile ~sampling b ~input:w.input)
  in
  let prof_lbr = profile ~lbr:true in
  let prof_nolbr = profile ~lbr:false in
  List.map
    (fun scenario ->
      let opts = scenario_opts scenario in
      let run prof = Pipeline.run (fst (Pipeline.bolt ~opts b prof)) ~input:w.input in
      let with_lbr = run prof_lbr in
      let without = run prof_nolbr in
      let impr f =
        let a = float_of_int (f with_lbr.Machine.counters) in
        let b = float_of_int (f without.Machine.counters) in
        if b = 0.0 then 0.0 else 100.0 *. (b -. a) /. b
      in
      ( scenario,
        [
          ("instructions", impr (fun c -> c.Machine.instructions));
          ("branch-miss", impr (fun c -> c.Machine.branch_misses));
          ("i-cache-miss", impr (fun c -> c.Machine.l1i_misses));
          ("llc-miss", impr (fun c -> c.Machine.llc_misses));
          ("i-tlb-miss", impr (fun c -> c.Machine.itlb_misses));
          ("cpu-time", impr (fun c -> Machine.cycles c * 4));
        ] ))
    [ "functions"; "bbs"; "both" ]

(* ---- §5.1: sampling events ---- *)

let sec51 ?(params = { Bolt_workloads.Workloads.hhvm_like with iterations = 6_000 }) () =
  let w = Bolt_workloads.Gen.gen params in
  let b = Pipeline.compile ~externals:w.externals ~extra_objs:w.extra_objs w.sources in
  let base = Pipeline.run b ~input:w.input in
  let try_sampling name sampling =
    let prof, _ = Pipeline.profile ~sampling b ~input:w.input in
    let opt = Pipeline.run (fst (Pipeline.bolt b prof)) ~input:w.input in
    (name, Pipeline.speedup ~baseline:base ~optimized:opt)
  in
  [
    try_sampling "lbr-cycles"
      { Machine.event = Machine.Ev_cycles; period = 4001; lbr = true; precise = true };
    try_sampling "lbr-instructions"
      { Machine.event = Machine.Ev_instructions; period = 1009; lbr = true; precise = true };
    try_sampling "lbr-taken-branches"
      { Machine.event = Machine.Ev_taken_branches; period = 257; lbr = true; precise = true };
    try_sampling "lbr-cycles-skid"
      { Machine.event = Machine.Ev_cycles; period = 4001; lbr = true; precise = false };
    try_sampling "nolbr-cycles"
      { Machine.event = Machine.Ev_cycles; period = 997; lbr = false; precise = true };
    try_sampling "nolbr-instructions"
      { Machine.event = Machine.Ev_instructions; period = 251; lbr = false; precise = false };
  ]

(* ---- §4: ICF on top of linker ICF ---- *)

type icf_result = {
  icf_linker_folded : int;
  icf_linker_bytes : int;
  icf_bolt_folded : int;
  icf_bolt_bytes : int;
  icf_text_size : int;
  icf_pct : float; (* BOLT's extra reduction, % of text *)
  icf_behaviour_ok : bool; (* the output behaves like the input on its input *)
}

let icf_experiment ?(params = { Bolt_workloads.Workloads.hhvm_like with iterations = 3_000 })
    () =
  let w = Bolt_workloads.Gen.gen params in
  let cc = { Bolt_minic.Driver.default_options with linker_icf = true } in
  let r =
    Bolt_minic.Driver.compile ~options:cc ~externals:w.externals ~extra_objs:w.extra_objs
      w.sources
  in
  let b = { Pipeline.exe = r.exe; cc } in
  (* the profiling run is the input's run on the workload's input *)
  let prof, base = Pipeline.profile b ~input:w.input in
  let b', report = Pipeline.bolt ~opts:{ Bolt_core.Opts.none with icf = true } b prof in
  let opt = Pipeline.run b' ~input:w.input in
  let text = Bolt_obj.Objfile.text_size r.exe in
  {
    icf_linker_folded = r.link_stats.Bolt_linker.Linker.icf_folded;
    icf_linker_bytes = r.link_stats.Bolt_linker.Linker.icf_bytes_saved;
    icf_bolt_folded = report.Bolt_core.Bolt.r_icf_folded;
    icf_bolt_bytes = report.Bolt_core.Bolt.r_icf_bytes;
    icf_text_size = text;
    icf_pct = 100.0 *. float_of_int report.Bolt_core.Bolt.r_icf_bytes /. float_of_int text;
    icf_behaviour_ok = Pipeline.same_behaviour base opt;
  }

(* ---- Figure 2: the motivating example ---- *)

(* foo's branch direction depends on the call site; the compiler's PGO
   aggregates the two inlined copies, BOLT sees them separately. *)
let fig2_source =
  {|
global sink = 0;
inline fn foo(x) {
  if (x > 0) { return x * 3 + 1; } else { return x * 5 - 1; }
}
fn bar(i) { return foo((i % 100) + 1); }
fn baz(i) { return foo(0 - (i % 100) - 1); }
fn main() {
  var i = 0;
  while (i < 40000) {
    sink = sink + bar(i) + baz(i);
    i = i + 1;
  }
  out sink;
  return 0;
}
|}

type fig2_result = {
  f2_plain_taken : int; (* taken conditional branches, plain -O2 build *)
  f2_pgo_taken : int; (* same, instrumentation-PGO build *)
  f2_bolt_taken : int; (* same, BOLT applied to the plain build *)
  f2_plain_cycles : int;
  f2_pgo_cycles : int;
  f2_bolt_cycles : int;
  f2_plain_branches : int; (* total taken branches (any kind), plain *)
  f2_pgo_branches : int;
  f2_bolt_branches : int;
  f2_behaviour_ok : bool;
}

(* Three builds of the foo/bar/baz example.  Plain -O2 keeps source
   order: both inlined copies of foo take their conditional every
   iteration.  Instrumented PGO feeds each copy's own edge counters to
   the layout engine, which collapses both at compile time.  BOLT gets
   only per-address samples of the *plain* binary — no recompile, no
   counters — and must recover the same layout, which it does, plus the
   loop rotation compile-time layout keeps missing (the rotated loop
   trades its back-edge jmp for a bottom-of-loop conditional, so total
   taken branches drop well below even the PGO build). *)
let fig2 () =
  let sources = [ ("m", fig2_source) ] in
  let cc = Bolt_minic.Driver.default_options in
  let plain = Pipeline.compile ~cc sources in
  let base = Pipeline.run plain ~input:[||] in
  let edge_prof = Pipeline.pgo_profile ~cc sources ~input:[||] in
  let b = Pipeline.compile ~cc:{ cc with pgo = Bolt_minic.Driver.Apply edge_prof } sources in
  let pgo = Pipeline.run b ~input:[||] in
  let prof, _ = Pipeline.profile plain ~input:[||] in
  let opt = Pipeline.run (fst (Pipeline.bolt plain prof)) ~input:[||] in
  {
    f2_plain_taken = base.Machine.counters.Machine.cond_taken;
    f2_pgo_taken = pgo.Machine.counters.Machine.cond_taken;
    f2_bolt_taken = opt.Machine.counters.Machine.cond_taken;
    f2_plain_cycles = Machine.cycles base.Machine.counters;
    f2_pgo_cycles = Machine.cycles pgo.Machine.counters;
    f2_bolt_cycles = Machine.cycles opt.Machine.counters;
    f2_plain_branches = base.Machine.counters.Machine.taken_branches;
    f2_pgo_branches = pgo.Machine.counters.Machine.taken_branches;
    f2_bolt_branches = opt.Machine.counters.Machine.taken_branches;
    f2_behaviour_ok =
      Pipeline.same_behaviour base opt && Pipeline.same_behaviour base pgo;
  }

(* ---- Figure 10 / §6.3: report-bad-layout ---- *)

let fig10 ?(quick = false) () =
  let params = Bolt_workloads.Workloads.clang_like in
  let w = Bolt_workloads.Gen.gen params in
  let inputs = compiler_inputs ~quick params.Bolt_workloads.Gen.seed in
  let train = List.assoc "full-build" inputs in
  let cc = Bolt_minic.Driver.default_options in
  let edge_prof =
    Pipeline.pgo_profile ~externals:w.externals ~extra_objs:w.extra_objs
      ~cc:{ cc with lto = true } w.sources ~input:train
  in
  let b =
    Pipeline.compile
      ~cc:{ cc with pgo = Bolt_minic.Driver.Apply edge_prof; lto = true }
      ~externals:w.externals ~extra_objs:w.extra_objs w.sources
  in
  let prof, _ = Pipeline.profile b ~input:train in
  let _, report = Pipeline.bolt b prof in
  report.Bolt_core.Bolt.r_bad_layout

(* ---- ablations ---- *)

let ablations ?(params = { Bolt_workloads.Workloads.hhvm_like with iterations = 6_000 }) ()
    =
  let variants =
    [
      ("full (ext-tsp, hfsort+)", Bolt_core.Opts.default);
      ("reorder-blocks=cache+", { Bolt_core.Opts.default with reorder_blocks = Bolt_core.Opts.Rb_cache_plus });
      ("reorder-blocks=cache", { Bolt_core.Opts.default with reorder_blocks = Bolt_core.Opts.Rb_cache });
      ("reorder-blocks=none", { Bolt_core.Opts.default with reorder_blocks = Bolt_core.Opts.Rb_none });
      ("reorder-functions=hfsort", { Bolt_core.Opts.default with reorder_functions = Bolt_core.Opts.Rf_hfsort });
      ("reorder-functions=ph", { Bolt_core.Opts.default with reorder_functions = Bolt_core.Opts.Rf_pettis_hansen });
      ("reorder-functions=none", { Bolt_core.Opts.default with reorder_functions = Bolt_core.Opts.Rf_none });
      ("no-splitting", { Bolt_core.Opts.default with split_functions = Bolt_core.Opts.Split_none; split_all_cold = false; split_eh = false });
      ("no-trust-fallthrough", { Bolt_core.Opts.default with trust_fallthrough = false });
      ("no-nop-stripping", { Bolt_core.Opts.default with strip_nops = false });
      ("no-icf-icp-inline", { Bolt_core.Opts.default with icf = false; icp = false; inline_small = false });
    ]
  in
  List.map
    (fun (name, opts) ->
      let r = fb_flow ~name ~bolt_opts:opts params in
      (name, r.fb_speedup, r.fb_behaviour_ok))
    variants
