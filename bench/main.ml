(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) against the simulated substrate, printing measured
   numbers next to the paper's reported ones.

     dune exec bench/main.exe            — everything (reduced workload sizes)
     dune exec bench/main.exe -- full    — everything at paper-scale sizes
     dune exec bench/main.exe -- fig5    — a single experiment
     dune exec bench/main.exe -- micro   — Bechamel micro-benchmarks of
                                           the rewriter itself            *)

module E = Bolt_pipeline.Experiments
module P = Bolt_pipeline.Pipeline
module Obs = Bolt_obs.Obs
module Json = Bolt_obs.Json

(* One telemetry bundle for the whole harness: every experiment runs in a
   span, and each run_* contributes a JSON section.  Everything lands in
   BENCH_results.json at the end via the manifest serializer. *)
let obs = Obs.create ~name:"bench" ()
let bench_sections : (string * Json.t) list ref = ref []
let add_section name j = bench_sections := (name, j) :: !bench_sections

let section title = Printf.printf "\n==== %s ====\n%!" title

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = Obs.span obs name f in
  Printf.printf "[%s: %.1fs]\n%!" name (Unix.gettimeofday () -. t0);
  r

(* ---- Figure 5 ---- *)

let run_fig5 ~quick () =
  section "Figure 5: BOLT speedups on data-center workloads (over HFSort(+LTO) baseline)";
  let results = timed "fig5" (fun () -> E.fig5 ~quick ()) in
  Printf.printf "%-12s %10s %10s  %s\n" "workload" "paper(%)" "ours(%)" "behaviour";
  List.iter
    (fun (r : E.fb_result) ->
      let paper = try List.assoc r.E.fb_name E.fig5_paper with Not_found -> 0.0 in
      Printf.printf "%-12s %10.1f %10.1f  %s\n" r.E.fb_name paper r.E.fb_speedup
        (if r.E.fb_behaviour_ok then "identical" else "MISMATCH!"))
    results;
  let ours = List.map (fun (r : E.fb_result) -> r.E.fb_speedup) results in
  let paper = List.map snd E.fig5_paper in
  Printf.printf "%-12s %10.1f %10.1f\n" "geomean" (E.geomean paper) (E.geomean ours);
  add_section "fig5"
    (Json.Obj
       [
         ( "workloads",
           Json.List
             (List.map
                (fun (r : E.fb_result) ->
                  Json.Obj
                    [
                      ("name", Json.String r.E.fb_name);
                      ( "paper_pct",
                        Json.Float
                          (try List.assoc r.E.fb_name E.fig5_paper
                           with Not_found -> 0.0) );
                      ("ours_pct", Json.Float r.E.fb_speedup);
                      ("behaviour_ok", Json.Bool r.E.fb_behaviour_ok);
                    ])
                results) );
         ("geomean_paper_pct", Json.Float (E.geomean paper));
         ("geomean_ours_pct", Json.Float (E.geomean ours));
       ]);
  results

(* ---- Figure 6 ---- *)

let run_fig6 (hhvm : E.fb_result) =
  section "Figure 6: micro-architecture miss reductions for hhvm (%)";
  Printf.printf "%-14s %10s %10s\n" "metric" "paper(%)" "ours(%)";
  List.iter2
    (fun (name, paper) (_, ours) -> Printf.printf "%-14s %10.1f %10.1f\n" name paper ours)
    E.fig6_paper (E.fig6_rows hhvm);
  add_section "fig6"
    (Json.List
       (List.map2
          (fun (name, paper) (_, ours) ->
            Json.Obj
              [
                ("metric", Json.String name);
                ("paper_pct", Json.Float paper);
                ("ours_pct", Json.Float ours);
              ])
          E.fig6_paper (E.fig6_rows hhvm)))

(* ---- Figures 7/8 ---- *)

let print_cc title paper (cc : E.cc_result) =
  section title;
  (match cc.E.cc_variants with
  | v :: _ ->
      Printf.printf "%-14s" "variant";
      List.iter (fun (n, _) -> Printf.printf " %18s" n) v.E.cv_speedups;
      Printf.printf "\n"
  | [] -> ());
  List.iter
    (fun (v : E.cc_variant) ->
      Printf.printf "%-14s" v.E.cv_name;
      let paper_row = List.assoc_opt v.E.cv_name paper in
      List.iter
        (fun (input, ours) ->
          let p =
            match paper_row with
            | Some row -> ( try List.assoc input row with Not_found -> 0.0)
            | None -> 0.0
          in
          Printf.printf "  %6.1f (p %5.1f)" ours p)
        v.E.cv_speedups;
      Printf.printf "\n")
    cc.E.cc_variants

let cc_json (cc : E.cc_result) =
  Json.List
    (List.map
       (fun (v : E.cc_variant) ->
         Json.Obj
           [
             ("variant", Json.String v.E.cv_name);
             ( "speedups_pct",
               Json.Obj
                 (List.map (fun (input, s) -> (input, Json.Float s)) v.E.cv_speedups) );
           ])
       cc.E.cc_variants)

(* ---- Table 2 ---- *)

let run_table2 (cc : E.cc_result) =
  section "Table 2: dyno-stats deltas for the compiler workload (%)";
  let over_base, over_pgo = E.table2_rows cc in
  Printf.printf "%-34s %10s %10s %12s %12s\n" "metric" "paper/base" "ours/base"
    "paper/pgolto" "ours/pgolto";
  List.iter
    (fun (name, p_base, p_pgo) ->
      let find rows = try List.assoc name rows with Not_found -> nan in
      Printf.printf "%-34s %10.1f %10.1f %12.1f %12.1f\n" name p_base (find over_base)
        p_pgo (find over_pgo))
    E.table2_paper;
  let rows name rows =
    (name, Json.Obj (List.map (fun (m, v) -> (m, Json.Float v)) rows))
  in
  add_section "table2" (Json.Obj [ rows "over_base" over_base; rows "over_pgolto" over_pgo ])

(* ---- Figure 9 ---- *)

let run_fig9 (hhvm : E.fb_result) =
  section "Figure 9: instruction-address heat maps for hhvm";
  let r = E.fig9_of hhvm in
  Printf.printf "before: hot extent %d KB, heat in first 1/16 of text: %.1f%%\n"
    (r.E.h_extent_before / 1024)
    (100.0 *. r.E.h_prefix_before);
  Printf.printf "after : hot extent %d KB, heat in first 1/16 of text: %.1f%%\n"
    (r.E.h_extent_after / 1024)
    (100.0 *. r.E.h_prefix_after);
  Printf.printf "(paper: hot code packed from a 148.2MB span into ~4MB)\n";
  add_section "fig9"
    (Json.Obj
       [
         ("hot_extent_before", Json.Int r.E.h_extent_before);
         ("hot_extent_after", Json.Int r.E.h_extent_after);
         ("heat_in_prefix_16th_before", Json.Float r.E.h_prefix_before);
         ("heat_in_prefix_16th_after", Json.Float r.E.h_prefix_after);
         ("heatmap_before", Bolt_core.Heatmap.summary_json r.E.h_before);
         ("heatmap_after", Bolt_core.Heatmap.summary_json r.E.h_after);
       ]);
  Printf.printf "\n-- before --\n%!";
  Fmt.pr "%a@." Bolt_core.Heatmap.render r.E.h_before;
  Printf.printf "-- after --\n%!";
  Fmt.pr "%a@." Bolt_core.Heatmap.render r.E.h_after

(* ---- Figure 10 ---- *)

let run_fig10 ~quick () =
  section "Figure 10 / §6.3: -report-bad-layout on the PGO+LTO compiler binary";
  let findings = timed "fig10" (fun () -> E.fig10 ~quick ()) in
  Printf.printf "%d suspicious hot/cold interleavings; top findings:\n" (List.length findings);
  List.iteri (fun i f -> if i < 8 then Fmt.pr "  %a" Bolt_core.Report.pp_finding f) findings;
  add_section "fig10" (Json.Obj [ ("findings", Json.Int (List.length findings)) ])

(* ---- Figure 11 ---- *)

let run_fig11 () =
  section "Figure 11 / §6.5: improvement from using LBRs (% vs non-LBR profile)";
  let rows = timed "fig11" (fun () -> E.fig11 ()) in
  (match rows with
  | (_, metrics) :: _ ->
      Printf.printf "%-12s" "scenario";
      List.iter (fun (m, _) -> Printf.printf " %17s" m) metrics;
      Printf.printf "\n"
  | [] -> ());
  List.iter
    (fun (scenario, metrics) ->
      Printf.printf "%-12s" scenario;
      let paper = try List.assoc scenario E.fig11_paper with Not_found -> [] in
      List.iter
        (fun (m, v) ->
          let p = try List.assoc m paper with Not_found -> 0.0 in
          Printf.printf "  %5.2f (p %5.2f)" v p)
        metrics;
      Printf.printf "\n")
    rows;
  add_section "fig11"
    (Json.Obj
       (List.map
          (fun (scenario, metrics) ->
            (scenario, Json.Obj (List.map (fun (m, v) -> (m, Json.Float v)) metrics)))
          rows))

(* ---- §5.1 ---- *)

let run_sec51 () =
  section "§5.1: sampling events (speedup obtained from each profile source)";
  let rows = timed "sec51" (fun () -> E.sec51 ()) in
  List.iter (fun (name, s) -> Printf.printf "  %-22s %6.2f%%\n" name s) rows;
  let lbr =
    List.filter (fun (n, _) -> String.length n > 3 && String.sub n 0 3 = "lbr") rows
  in
  let vals = List.map snd lbr in
  let spread =
    List.fold_left max neg_infinity vals -. List.fold_left min infinity vals
  in
  Printf.printf "  LBR spread across events: %.2f%% (paper: within ~1%%)\n" spread;
  add_section "sec51"
    (Json.Obj
       (("lbr_spread_pct", Json.Float spread)
       :: List.map (fun (name, s) -> (name, Json.Float s)) rows))

(* ---- ICF ---- *)

let run_icf () =
  section "§4: BOLT ICF on top of linker ICF (hhvm-like)";
  let r = timed "icf" (fun () -> E.icf_experiment ()) in
  Printf.printf "  linker ICF: %d functions, %d bytes\n" r.E.icf_linker_folded
    r.E.icf_linker_bytes;
  Printf.printf "  BOLT ICF  : %d more functions, %d bytes = %.1f%% of text (paper: ~3%%)\n"
    r.E.icf_bolt_folded r.E.icf_bolt_bytes r.E.icf_pct;
  add_section "icf"
    (Json.Obj
       [
         ("linker_folded", Json.Int r.E.icf_linker_folded);
         ("linker_bytes", Json.Int r.E.icf_linker_bytes);
         ("bolt_folded", Json.Int r.E.icf_bolt_folded);
         ("bolt_bytes", Json.Int r.E.icf_bolt_bytes);
         ("bolt_pct_of_text", Json.Float r.E.icf_pct);
       ])

(* ---- Figure 2 ---- *)

let run_fig2 () =
  section "Figure 2: compile-time layout (plain, PGO) vs binary-level samples (BOLT)";
  let r = timed "fig2" (fun () -> E.fig2 ()) in
  Printf.printf
    "  taken conditional branches: plain %d, +PGO recompile %d, plain+BOLT %d\n"
    r.E.f2_plain_taken r.E.f2_pgo_taken r.E.f2_bolt_taken;
  Printf.printf "  total taken branches: plain %d, PGO %d, BOLT %d\n"
    r.E.f2_plain_branches r.E.f2_pgo_branches r.E.f2_bolt_branches;
  Printf.printf "  cycles: plain %d, PGO %d, BOLT %d; behaviour %s\n"
    r.E.f2_plain_cycles r.E.f2_pgo_cycles r.E.f2_bolt_cycles
    (if r.E.f2_behaviour_ok then "identical" else "MISMATCH!");
  add_section "fig2"
    (Json.Obj
       [
         ("plain_taken", Json.Int r.E.f2_plain_taken);
         ("pgo_taken", Json.Int r.E.f2_pgo_taken);
         ("bolt_taken", Json.Int r.E.f2_bolt_taken);
         ("plain_branches", Json.Int r.E.f2_plain_branches);
         ("pgo_branches", Json.Int r.E.f2_pgo_branches);
         ("bolt_branches", Json.Int r.E.f2_bolt_branches);
         ("plain_cycles", Json.Int r.E.f2_plain_cycles);
         ("pgo_cycles", Json.Int r.E.f2_pgo_cycles);
         ("bolt_cycles", Json.Int r.E.f2_bolt_cycles);
         ("behaviour_ok", Json.Bool r.E.f2_behaviour_ok);
       ])

(* ---- ablations ---- *)

let run_ablations ~quick () =
  section "Ablations: design choices (speedup over HFSort baseline, hhvm-like)";
  let params =
    {
      Bolt_workloads.Workloads.hhvm_like with
      Bolt_workloads.Gen.iterations = (if quick then 2_500 else 6_000);
      funcs = (if quick then 1_200 else 2_200);
    }
  in
  let rows = timed "ablations" (fun () -> E.ablations ~params ()) in
  List.iter
    (fun (name, s, ok) ->
      Printf.printf "  %-28s %6.2f%%  %s\n" name s (if ok then "" else "MISMATCH!"))
    rows;
  add_section "ablations"
    (Json.List
       (List.map
          (fun (name, s, ok) ->
            Json.Obj
              [
                ("variant", Json.String name);
                ("speedup_pct", Json.Float s);
                ("behaviour_ok", Json.Bool ok);
              ])
          rows))

(* ---- domain scaling ---- *)

(* Rewrite wall-time at -j1/2/4 on the hhvm-like workload.  The output is
   byte-identical at every level (asserted), so the only variable is the
   per-function fan-out of the Table 1 passes. *)
let run_scaling ~quick () =
  section "Scaling: rewrite wall-time vs worker domains (hhvm-like)";
  let params =
    {
      Bolt_workloads.Workloads.hhvm_like with
      Bolt_workloads.Gen.iterations = (if quick then 2_000 else 6_000);
      funcs = (if quick then 1_200 else 2_200);
    }
  in
  let w = Bolt_workloads.Gen.gen params in
  let cc = Bolt_minic.Driver.default_options in
  let b =
    Bolt_minic.Driver.compile ~options:cc ~externals:w.Bolt_workloads.Gen.externals
      ~extra_objs:w.Bolt_workloads.Gen.extra_objs w.Bolt_workloads.Gen.sources
  in
  let build = { P.exe = b.exe; cc } in
  let prof, _ = P.profile build ~input:w.Bolt_workloads.Gen.input in
  let time_at jobs =
    let t0 = Unix.gettimeofday () in
    let b', _ = P.bolt ~jobs build prof in
    (Unix.gettimeofday () -. t0, Bolt_obj.Objfile.to_string b'.P.exe)
  in
  ignore (time_at 1) (* warm-up: heap growth, code loading *);
  let levels = [ 1; 2; 4 ] in
  let runs = List.map (fun j -> (j, time_at j)) levels in
  let base_t, base_out = List.assoc 1 runs in
  Printf.printf "  (machine reports %d recommended domain(s))\n"
    (Domain.recommended_domain_count ());
  Printf.printf "  %-6s %10s %10s  %s\n" "jobs" "wall(s)" "speedup" "output";
  List.iter
    (fun (j, (t, out)) ->
      Printf.printf "  %-6d %10.2f %9.2fx  %s\n" j t
        (if t > 0.0 then base_t /. t else 0.0)
        (if out = base_out then "identical" else "DIFFERS!"))
    runs;
  add_section "scaling"
    (Json.Obj
       [
         ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
         ( "runs",
           Json.List
             (List.map
                (fun (j, (t, out)) ->
                  Json.Obj
                    [
                      ("jobs", Json.Int j);
                      ("wall_s", Json.Float t);
                      ("speedup", Json.Float (if t > 0.0 then base_t /. t else 0.0));
                      ("output_identical", Json.Bool (out = base_out));
                    ])
                runs) );
       ])

(* ---- layout quality ---- *)

(* Offline layout evaluation (lib/layout): aggregate ExtTSP score and
   estimated hot working set of the input layout vs what each
   -reorder-blocks algorithm produces, plus the dyno-stats taken-branch
   count, on the hhvm-like workload.  No simulation involved. *)
let run_layout ~quick () =
  section "Layout: ExtTSP score and working-set estimates per algorithm (hhvm-like)";
  let params =
    {
      Bolt_workloads.Workloads.hhvm_like with
      Bolt_workloads.Gen.iterations = (if quick then 2_000 else 6_000);
      funcs = (if quick then 800 else 2_200);
    }
  in
  let w = Bolt_workloads.Gen.gen params in
  let cc = Bolt_minic.Driver.default_options in
  let b =
    Bolt_minic.Driver.compile ~options:cc ~externals:w.Bolt_workloads.Gen.externals
      ~extra_objs:w.Bolt_workloads.Gen.extra_objs w.Bolt_workloads.Gen.sources
  in
  let build = { P.exe = b.exe; cc } in
  let prof, _ = P.profile build ~input:w.Bolt_workloads.Gen.input in
  let totals rows = Bolt_core.Layout_bbs.snapshot_totals rows in
  let ev_row name (t : Bolt_layout.Evaluator.result) taken =
    Printf.printf "  %-18s %14.1f %10d %8d %14d\n" name
      t.Bolt_layout.Evaluator.ev_score t.Bolt_layout.Evaluator.ev_icache_lines
      t.Bolt_layout.Evaluator.ev_itlb_pages taken
  in
  let ev_json (t : Bolt_layout.Evaluator.result) taken =
    Json.Obj
      [
        ("exttsp_score", Json.Float t.Bolt_layout.Evaluator.ev_score);
        ("hot_icache_lines", Json.Int t.Bolt_layout.Evaluator.ev_icache_lines);
        ("hot_itlb_pages", Json.Int t.Bolt_layout.Evaluator.ev_itlb_pages);
        ("hot_bytes", Json.Int t.Bolt_layout.Evaluator.ev_hot_bytes);
        ("taken_branches", Json.Int taken);
      ]
  in
  let algos =
    [
      ("cache", Bolt_core.Opts.Rb_cache);
      ("cache+", Bolt_core.Opts.Rb_cache_plus);
      ("ext-tsp", Bolt_core.Opts.Rb_ext_tsp);
    ]
  in
  Printf.printf "  %-18s %14s %10s %8s %14s\n" "layout" "exttsp" "lines"
    "pages" "taken branches";
  let before = ref None in
  let rows =
    timed "layout" (fun () ->
        List.map
          (fun (name, rb) ->
            let opts = { Bolt_core.Opts.default with reorder_blocks = rb } in
            let _, r = P.bolt ~opts build prof in
            if !before = None then
              before :=
                Some
                  ( totals r.Bolt_core.Bolt.r_layout_before,
                    r.Bolt_core.Bolt.r_dyno_before.Bolt_core.Dyno_stats
                    .taken_branches );
            ( name,
              totals r.Bolt_core.Bolt.r_layout_after,
              r.Bolt_core.Bolt.r_dyno_after.Bolt_core.Dyno_stats.taken_branches
            ))
          algos)
  in
  let before_t, before_taken =
    match !before with Some x -> x | None -> (Bolt_layout.Evaluator.zero, 0)
  in
  ev_row "original" before_t before_taken;
  List.iter (fun (name, t, taken) -> ev_row name t taken) rows;
  add_section "layout"
    (Json.Obj
       (("before", ev_json before_t before_taken)
       :: List.map (fun (name, t, taken) -> (name, ev_json t taken)) rows))

(* ---- fleet aggregation ---- *)

(* Fleet profile merging (lib/fleet): simulate the 8-host fleet, then
   (a) merge throughput over a replicated shard set and (b) the
   end-to-end payoff: dyno-stats taken branches on the fleet-wide
   traffic for BOLT fed the merged profile vs BOLT fed the best single
   host shard. *)
let run_fleet ~quick () =
  section "Fleet: shard merge throughput and merged-vs-single-shard dyno-stats";
  let module FS = Bolt_fleet.Fleet_sim in
  let module M = Bolt_fleet.Merge in
  let cfg =
    {
      FS.default_config with
      FS.fc_requests = (if quick then 1_200 else 4_000);
      fc_params =
        {
          FS.default_config.FS.fc_params with
          Bolt_workloads.Gen.funcs = (if quick then 200 else 320);
        };
      fc_sampling =
        { P.default_sampling with Bolt_sim.Machine.period = 101 };
    }
  in
  (* simulate the fleet plus a rollout: tick 0 has the configured stale
     hosts, then one upgrades to the current revision per tick *)
  let r, rollout_ticks =
    timed "fleet-sim" (fun () ->
        FS.rollout ~obs ~ticks:(cfg.FS.fc_stale + 1) cfg)
  in
  let shards = FS.loaded_shards r in
  (* replicate the host shards into a bigger fleet for throughput numbers *)
  let copies = if quick then 16 else 64 in
  let big =
    List.init copies (fun i ->
        List.map
          (fun (s : M.loaded) ->
            { s with M.sh_name = Printf.sprintf "%s.copy%d" s.M.sh_name i })
          shards)
    |> List.concat
  in
  let record_lines (p : Bolt_profile.Fdata.t) =
    List.length p.Bolt_profile.Fdata.branches
    + List.length p.Bolt_profile.Fdata.ranges
    + List.length p.Bolt_profile.Fdata.samples
  in
  let total_lines =
    List.fold_left (fun a (s : M.loaded) -> a + record_lines s.M.sh_prof) 0 big
  in
  let time_merge () =
    let t0 = Unix.gettimeofday () in
    ignore (M.merge big);
    Unix.gettimeofday () -. t0
  in
  ignore (time_merge ()) (* warm-up *);
  let t_merge = time_merge () in
  let per_s n = if t_merge > 0.0 then float_of_int n /. t_merge else 0.0 in
  Printf.printf
    "  merging %d shards (%d record lines): %.3f s, %.0f shards/s, %.0f lines/s\n"
    (List.length big) total_lines t_merge
    (per_s (List.length big))
    (per_s total_lines);
  (* merged profile vs each single host shard, on fleet-wide traffic *)
  let build = r.FS.fr_build in
  let input = r.FS.fr_fleet_input in
  (* merge as a deployment pipeline would: day-old stale shards decayed
     to ~nothing, target build-id pinned *)
  let merged =
    M.merge ~obs
      ~opts:
        {
          M.default_options with
          M.decay = Some 1e-4;
          expect_build_id = Some build.P.exe.Bolt_obj.Objfile.build_id;
        }
      shards
  in
  let taken_with prof =
    let b', _ = P.bolt build prof in
    (P.run b' ~input).Bolt_sim.Machine.counters.Bolt_sim.Machine.taken_branches
  in
  let merged_taken = timed "fleet-dyno" (fun () -> taken_with merged) in
  let singles =
    List.map
      (fun ((h : FS.host), prof) -> (h.FS.h_name, taken_with prof))
      r.FS.fr_shards
  in
  let best_name, best_taken =
    List.fold_left
      (fun (bn, bt) (n, t) -> if t < bt then (n, t) else (bn, bt))
      (List.hd singles) (List.tl singles)
  in
  let delta_pct =
    if best_taken = 0 then 0.0
    else
      100.0 *. float_of_int (best_taken - merged_taken) /. float_of_int best_taken
  in
  Printf.printf "  taken branches on fleet traffic: merged %d, best single %d (%s), delta %.2f%%\n"
    merged_taken best_taken best_name delta_pct;
  (* fold each rollout tick through stale recovery + merge into the
     fleet health monitor: per-host coverage/age/rollout state over time *)
  let module Mon = Bolt_fleet.Monitor in
  let target_id = P.build_id build and target_fps = P.fingerprints build in
  let monitor = Mon.create () in
  timed "fleet-health" (fun () ->
      List.iter
        (fun t ->
          let shards_t = FS.tick_loaded_shards t in
          let recovered, recovery =
            M.recover_stale_each ~fingerprints:target_fps ~build_id:target_id
              shards_t
          in
          let merged_t =
            M.merge ~obs
              ~opts:
                { M.default_options with M.expect_build_id = Some target_id }
              recovered
          in
          ignore
            (Mon.observe ~obs monitor ~expected_build_id:target_id ~recovery
               shards_t ~merged:merged_t))
        rollout_ticks);
  Fmt.pr "%a" Mon.pp monitor;
  (let name, j = Mon.manifest_section monitor in
   add_section name j);
  let tick0_recovery =
    match Mon.ticks monitor with
    | tk :: _ -> (
        match tk.Mon.tk_quality.Bolt_fleet.Quality.q_recovery with
        | Some st ->
            Json.Float (Bolt_profile.Stale_match.recovery_rate st)
        | None -> Json.Null)
    | [] -> Json.Null
  in
  add_section "fleet"
    (Json.Obj
       [
         ("hosts", Json.Int cfg.FS.fc_hosts);
         ("stale_hosts", Json.Int cfg.FS.fc_stale);
         ("merge_shards", Json.Int (List.length big));
         ("merge_lines", Json.Int total_lines);
         ("merge_wall_s", Json.Float t_merge);
         ("merge_shards_per_s", Json.Float (per_s (List.length big)));
         ("merge_lines_per_s", Json.Float (per_s total_lines));
         ("merged_taken_branches", Json.Int merged_taken);
         ("best_single_taken_branches", Json.Int best_taken);
         ("best_single_host", Json.String best_name);
         ("merged_delta_pct", Json.Float delta_pct);
         ("rollout_ticks", Json.Int (List.length rollout_ticks));
         ("recovery", Json.Obj [ ("rate", tick0_recovery) ]);
       ])

(* ---- iocore: the zero-copy data plane ---- *)

let run_iocore ~quick () =
  section "iocore: zero-copy data plane (slice/cursor core)";
  let funcs = if quick then 10_000 else 100_000 in
  let fdata_lines = if quick then 200_000 else 2_000_000 in
  let m =
    timed "iocore-gen" (fun () ->
        Bolt_workloads.Gen.gen_mega ~funcs ~fdata_lines ())
  in
  let belf = m.Bolt_workloads.Gen.mg_belf in
  let fdata = m.Bolt_workloads.Gen.mg_fdata in
  let lines = float_of_int m.Bolt_workloads.Gen.mg_fdata_lines in
  let mb = float_of_int (String.length belf) /. 1048576.0 in
  (* best-of-N with a full major collection before each rep: the loads
     allocate tens of MB of live data, and where the GC pacing lands
     otherwise dominates run-to-run variance *)
  let reps = if quick then 3 else 7 in
  let best f =
    let b = ref infinity in
    for _ = 1 to reps do
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      Sys.opaque_identity (ignore (f ()));
      b := min !b (Unix.gettimeofday () -. t0)
    done;
    !b
  in
  let t_new = best (fun () -> Bolt_obj.Objfile.of_string belf) in
  Printf.printf "BELF load     %6.1f MB: %6.1f MB/s\n%!" mb (mb /. t_new);
  (* fdata: the materializing parse and the streaming lexer.  [scan] is
     what the fleet merger's streaming feeder consumes. *)
  let t_scan = best (fun () -> Bolt_profile.Fdata.scan fdata) in
  let t_parse = best (fun () -> Bolt_profile.Fdata.parse fdata) in
  Printf.printf "fdata parse   %6.0fk lines: parse %5.2f Ml/s  stream %5.2f Ml/s\n%!"
    (lines /. 1000.0) (lines /. t_parse /. 1e6) (lines /. t_scan /. 1e6);
  (* fdata emit: arena writer with hand-rolled decimal/hex *)
  let prof = fst (Bolt_profile.Fdata.parse fdata) in
  let t_emit = best (fun () -> Bolt_profile.Fdata.to_string prof) in
  Printf.printf "fdata emit:   %5.2fs\n%!" t_emit;
  (* fleet merge: the two feeders of the one accumulator — parsed
     record lists vs the streaming scan — over distinct-seed shards;
     outputs must be the same bytes *)
  let shard_lines = if quick then 50_000 else 200_000 in
  let shards =
    List.init 4 (fun i ->
        let s =
          Bolt_workloads.Gen.gen_mega ~seed:(100 + i) ~funcs:2_000
            ~fdata_lines:shard_lines ()
        in
        (Printf.sprintf "shard%d" i, s.Bolt_workloads.Gen.mg_fdata))
  in
  let batch () =
    Bolt_fleet.Merge.merge
      (List.map
         (fun (name, text) ->
           Bolt_fleet.Merge.shard_of_profile ~name
             (fst (Bolt_profile.Fdata.parse text)))
         shards)
  in
  let stream () = Bolt_fleet.Merge.merge_stream shards in
  let merge_identical =
    Bolt_profile.Fdata.to_string (batch ())
    = Bolt_profile.Fdata.to_string (stream ())
  in
  let t_batch = best batch in
  let t_stream = best stream in
  let merge_lines = float_of_int (4 * shard_lines) in
  Printf.printf "fleet merge   %6.0fk lines: batch %5.2f Ml/s  stream %5.2f Ml/s  %4.2fx  %s\n%!"
    (merge_lines /. 1000.0) (merge_lines /. t_batch /. 1e6)
    (merge_lines /. t_stream /. 1e6) (t_batch /. t_stream)
    (if merge_identical then "identical" else "MISMATCH!");
  (* re-encode determinism: the arena emit path must produce the same
     bytes at any -j *)
  let w =
    Bolt_workloads.Gen.gen
      { Bolt_workloads.Workloads.multifeed2 with iterations = 2_000 }
  in
  let cc = Bolt_minic.Driver.default_options in
  let b =
    Bolt_minic.Driver.compile ~options:cc ~externals:w.Bolt_workloads.Gen.externals
      ~extra_objs:w.Bolt_workloads.Gen.extra_objs w.Bolt_workloads.Gen.sources
  in
  let prof4, _ = P.profile { P.exe = b.exe; cc } ~input:w.Bolt_workloads.Gen.input in
  let opt jobs =
    let exe', _ =
      Bolt_core.Bolt.optimize
        ~opts:{ Bolt_core.Opts.default with jobs }
        b.exe prof4
    in
    Bolt_obj.Objfile.to_string exe'
  in
  let reencode_identical = opt 1 = opt 4 in
  Printf.printf "re-encode:    j=1 vs j=4 %s\n%!"
    (if reencode_identical then "identical" else "MISMATCH!");
  add_section "iocore"
    (Json.Obj
       [
         ("funcs", Json.Int funcs);
         ("fdata_lines", Json.Int m.Bolt_workloads.Gen.mg_fdata_lines);
         ( "belf",
           Json.Obj
             [ ("mb", Json.Float mb); ("new_mb_per_s", Json.Float (mb /. t_new)) ]
         );
         ( "fdata",
           Json.Obj
             [
               ("parse_lines_per_s", Json.Float (lines /. t_parse));
               ("stream_lines_per_s", Json.Float (lines /. t_scan));
             ] );
         ("emit", Json.Obj [ ("new_s", Json.Float t_emit) ]);
         ( "merge",
           Json.Obj
             [
               ("batch_lines_per_s", Json.Float (merge_lines /. t_batch));
               ("stream_lines_per_s", Json.Float (merge_lines /. t_stream));
               ("stream_speedup", Json.Float (t_batch /. t_stream));
               ("identical", Json.Bool merge_identical);
             ] );
         ("reencode_j1_j4_identical", Json.Bool reencode_identical);
       ])

(* ---- continuous-optimization service ---- *)

(* Daemon-mode ingest at data-center scale: a synthetic tape of
   thousands of hosts / up to millions of fdata lines is replayed
   through the service loop (Fleet_sim.scale_tape -> Service.run), and
   the section records what an operator would gate on:

   - ingest throughput (tape lines per second through the full loop —
     sketch ingest, per-step merge, quality assessment, triggering);
   - the steady-state RSS proxy: sketch occupancy vs its byte budget
     (within_budget must hold), plus the eviction count and the
     merged-quality degradation the bound cost vs an unbounded merge;
   - trigger latency in ticks;
   - the unbounded streaming merge of the whole tape, the reference
     the sketch's retention is judged against. *)
let run_service ~quick () =
  section "Service: daemon ingest at fleet scale (sketch bound, triggers)";
  let module FS = Bolt_fleet.Fleet_sim in
  let module M = Bolt_fleet.Merge in
  let module S = Bolt_service.Service in
  let module Sk = Bolt_service.Sketch in
  let sc =
    {
      FS.default_scale with
      FS.sc_hosts = (if quick then 400 else 2_000);
      sc_funcs = (if quick then 1_500 else 5_000);
      sc_lines = (if quick then 500 else 1_000);
    }
  in
  let tape_raw = timed "service-tape" (fun () -> FS.scale_tape sc) in
  let count_lines text =
    let n = ref 0 in
    String.iter (fun c -> if c = '\n' then incr n) text;
    !n
  in
  let total_lines =
    List.fold_left (fun a (_, _, x) -> a + count_lines x) 0 tape_raw
  in
  let texts = List.map (fun (_, h, x) -> (h, x)) tape_raw in
  Printf.printf "  tape: %d hosts, %d lines (%d-function universe)\n%!"
    sc.FS.sc_hosts total_lines sc.FS.sc_funcs;
  (* the unbounded merge of the whole tape *)
  let t0 = Unix.gettimeofday () in
  let stream_merged = M.merge_stream texts in
  let t_stream = Unix.gettimeofday () -. t0 in
  let lps t = if t > 0.0 then float_of_int total_lines /. t else 0.0 in
  Printf.printf "  merge:   stream %8.0f lines/s\n%!" (lps t_stream);
  (* the service loop itself, under a deliberately tight sketch budget
     so the memory bound and its quality cost are exercised *)
  let budget = (if quick then 1 else 4) * 1024 * 1024 in
  let cfg =
    {
      S.default_config with
      S.c_topk = 64;
      c_budget = budget;
      c_trigger =
        {
          S.default_trigger with
          S.tr_min_hosts = sc.FS.sc_hosts / 2;
          (* the tight budget caps per-host coverage well below the
             production default; the bench wants the trigger path
             exercised, not gated off *)
          tr_min_coverage_pct = 0.25;
          tr_max_staleness_pct = 60.0;
        };
    }
  in
  let tape =
    List.map
      (fun (t, h, x) -> { S.ev_time = t; ev_host = h; ev_text = x })
      tape_raw
  in
  let svc =
    S.create ~config:cfg ~expect_build_id:FS.scale_build_id
      ~start_time:FS.base_timestamp ()
  in
  let t0 = Unix.gettimeofday () in
  let reports = S.run svc tape in
  let t_ingest = Unix.gettimeofday () -. t0 in
  let sk = S.sketch svc in
  let within_budget = Sk.peak sk <= Sk.budget sk in
  let latency =
    match S.first_trigger_step svc with Some s -> s | None -> -1
  in
  Printf.printf
    "  service: %d steps, %8.0f lines/s ingest, trigger latency %d tick(s)\n%!"
    (List.length reports) (lps t_ingest) latency;
  Printf.printf
    "  sketch:  peak %d / budget %d bytes (%s), %d evictions\n%!" (Sk.peak sk)
    budget
    (if within_budget then "within budget" else "OVER BUDGET!")
    (Sk.evictions sk);
  (* what the memory bound cost: event mass and function coverage of the
     sketch-bounded merge vs the unbounded merge of the same tape *)
  let event_mass (p : Bolt_profile.Fdata.t) =
    let m = ref 0L in
    List.iter
      (fun (b : Bolt_profile.Fdata.branch) ->
        m := Bolt_profile.Fdata.sat_add !m b.Bolt_profile.Fdata.br_count)
      p.Bolt_profile.Fdata.branches;
    List.iter
      (fun (s : Bolt_profile.Fdata.sample) ->
        m := Bolt_profile.Fdata.sat_add !m s.Bolt_profile.Fdata.sm_count)
      p.Bolt_profile.Fdata.samples;
    Int64.to_float !m
  in
  let funcs_of p = Hashtbl.length (Bolt_profile.Fdata.func_events p) in
  let events_retained_pct, funcs_retained_pct =
    match S.last_merged svc with
    | None -> (0.0, 0.0)
    | Some bounded ->
        let um = event_mass stream_merged and bm = event_mass bounded in
        let uf = funcs_of stream_merged and bf = funcs_of bounded in
        ( (if um > 0.0 then 100.0 *. bm /. um else 0.0),
          if uf > 0 then 100.0 *. float_of_int bf /. float_of_int uf else 0.0 )
  in
  Printf.printf
    "  quality degradation vs unbounded merge: %.1f%% events retained, %.1f%% functions\n%!"
    events_retained_pct funcs_retained_pct;
  add_section "service"
    (Json.Obj
       [
         ("hosts", Json.Int sc.FS.sc_hosts);
         ("lines", Json.Int total_lines);
         ("steps", Json.Int (List.length reports));
         ("ingest_lines_per_s", Json.Float (lps t_ingest));
         ("stream_lines_per_s", Json.Float (lps t_stream));
         ("sketch_budget_bytes", Json.Int budget);
         ("sketch_peak_bytes", Json.Int (Sk.peak sk));
         ("sketch_within_budget", Json.Bool within_budget);
         ("sketch_evictions", Json.Int (Sk.evictions sk));
         ("trigger_latency_ticks", Json.Int latency);
         ("events_retained_pct", Json.Float events_retained_pct);
         ("functions_retained_pct", Json.Float funcs_retained_pct);
       ])

(* ---- Bechamel micro-benchmarks ---- *)

let run_micro () =
  section "Bechamel micro-benchmarks: BOLT pipeline stages";
  let params = { Bolt_workloads.Workloads.multifeed2 with iterations = 2_000 } in
  let w = Bolt_workloads.Gen.gen params in
  let cc = Bolt_minic.Driver.default_options in
  let b =
    Bolt_minic.Driver.compile ~options:cc ~externals:w.Bolt_workloads.Gen.externals
      ~extra_objs:w.Bolt_workloads.Gen.extra_objs w.Bolt_workloads.Gen.sources
  in
  let prof, _ =
    P.profile { P.exe = b.exe; cc } ~input:w.Bolt_workloads.Gen.input
  in
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"discover+disassemble+cfg"
        (Staged.stage (fun () ->
             let ctx = Bolt_core.Context.create ~opts:Bolt_core.Opts.default b.exe in
             Bolt_core.Build.run ctx));
      Test.make ~name:"hfsort-c3"
        (Staged.stage (fun () ->
             let funcs =
               Bolt_obj.Objfile.function_symbols b.exe
               |> List.map (fun (s : Bolt_obj.Types.symbol) ->
                      (s.sym_name, max 1 s.sym_size))
             in
             let g = Bolt_hfsort.Callgraph.of_profile ~funcs prof in
             ignore (Bolt_hfsort.Order.c3 g)));
      Test.make ~name:"full-bolt-pipeline"
        (Staged.stage (fun () -> ignore (Bolt_core.Bolt.optimize b.exe prof)));
    ]
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 2.0) () in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
        Toolkit.Instance.monotonic_clock raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-28s %12.2f us/run\n%!" name (est /. 1000.0)
        | _ -> Printf.printf "  %-28s (no estimate)\n%!" name)
      results
  in
  List.iter benchmark tests

(* ---- main ---- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* reduced workload sizes are the default; pass "full" for paper-scale *)
  let quick = not (List.mem "full" args) in
  let args = List.filter (fun a -> a <> "quick" && a <> "full") args in
  (* every harness run lands in the longitudinal store (satellite of the
     bstat regression gate); history=FILE overrides the default path *)
  let history_file = ref "BENCH_history.jsonl" in
  let args =
    List.filter
      (fun a ->
        if String.length a >= 8 && String.sub a 0 8 = "history=" then begin
          history_file := String.sub a 8 (String.length a - 8);
          false
        end
        else true)
      args
  in
  let all = args = [] in
  let want x = all || List.mem x args in
  let fig5_results = ref None in
  let get_fig5 () =
    match !fig5_results with
    | Some r -> r
    | None ->
        let r = run_fig5 ~quick () in
        fig5_results := Some r;
        r
  in
  if want "fig5" then ignore (get_fig5 ());
  if want "fig6" then begin
    let results = get_fig5 () in
    match List.find_opt (fun (r : E.fb_result) -> r.E.fb_name = "hhvm") results with
    | Some hhvm -> run_fig6 hhvm
    | None -> ()
  end;
  if want "fig9" then begin
    section "Figure 9 (collecting heat maps for hhvm)";
    let params =
      {
        Bolt_workloads.Workloads.hhvm_like with
        iterations = (if quick then 2_000 else 6_000);
      }
    in
    let hhvm =
      timed "fig9" (fun () -> E.fb_flow ~lto:true ~heatmap:true ~name:"hhvm" params)
    in
    run_fig9 hhvm
  end;
  let cc7 = ref None in
  if want "fig7" || want "table2" then
    cc7 := Some (timed "fig7" (fun () -> E.fig7 ~quick ()));
  (match !cc7 with
  | Some cc when want "fig7" ->
      print_cc "Figure 7: Clang-like compiler speedups (%) [ours (paper)]" E.fig7_paper cc;
      add_section "fig7" (cc_json cc)
  | _ -> ());
  if want "fig8" then begin
    let cc = timed "fig8" (fun () -> E.fig8 ~quick ()) in
    print_cc "Figure 8: GCC-like compiler speedups (%) [ours (paper)]" E.fig8_paper cc;
    add_section "fig8" (cc_json cc)
  end;
  (match !cc7 with Some cc when want "table2" -> run_table2 cc | _ -> ());
  if want "fig10" then run_fig10 ~quick ();
  if want "fig11" then run_fig11 ();
  if want "sec51" then run_sec51 ();
  if want "icf" then run_icf ();
  if want "fig2" then run_fig2 ();
  if all || List.mem "ablations" args then run_ablations ~quick ();
  if want "scaling" then run_scaling ~quick ();
  if want "layout" then run_layout ~quick ();
  if want "fleet" then run_fleet ~quick ();
  if want "iocore" then run_iocore ~quick ();
  if want "service" then run_service ~quick ();
  if List.mem "micro" args then run_micro ();
  let out = "BENCH_results.json" in
  let manifest =
    Bolt_obs.Manifest.make ~tool:"bench" ~argv:(Array.to_list Sys.argv)
      ~sections:(("quick", Json.Bool quick) :: List.rev !bench_sections)
      obs
  in
  Bolt_obs.Manifest.save out manifest;
  Bolt_obs.History.append !history_file
    (Bolt_obs.History.of_manifest
       ~workload:(if quick then "bench-quick" else "bench-full")
       ~git_rev:(Bolt_obs.History.detect_git_rev ())
       manifest);
  Printf.printf "\nwrote %s\nappended run history %s\nDone.\n" out !history_file
