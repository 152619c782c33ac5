(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) against the simulated substrate, printing measured
   numbers next to the paper's reported ones.

     dune exec bench/main.exe            — everything (reduced workload sizes)
     dune exec bench/main.exe -- full    — everything at paper-scale sizes
     dune exec bench/main.exe -- fig5    — a single experiment

   The optimizer's own cost (wall time per stage, I/O throughput, service
   ingest) is perfbench's job, not this harness's: see perfbench/README.md. *)

module E = Bolt_pipeline.Experiments
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
  Printf.printf "  behaviour %s\n" (if r.E.icf_behaviour_ok then "identical" else "MISMATCH!");
  add_section "icf"
    (Json.Obj
       [
         ("linker_folded", Json.Int r.E.icf_linker_folded);
         ("linker_bytes", Json.Int r.E.icf_linker_bytes);
         ("bolt_folded", Json.Int r.E.icf_bolt_folded);
         ("bolt_bytes", Json.Int r.E.icf_bolt_bytes);
         ("bolt_pct_of_text", Json.Float r.E.icf_pct);
         ("behaviour_ok", Json.Bool r.E.icf_behaviour_ok);
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
  print_newline ();
  Bolt_obs.History.save_run ~tool:"bench" ~argv:(Array.to_list Sys.argv)
    ~sections:(("quick", Json.Bool quick) :: List.rev !bench_sections)
    ~workload:(if quick then "bench-quick" else "bench-full")
    ~trace_out:"BENCH_results.json" ~history:!history_file obs;
  print_endline "Done."
