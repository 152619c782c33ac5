(* The BOLT driver: rewriting pipeline of Figure 3 with the optimization
   sequence of Table 1.

   The pipeline itself lives in [Passman]: Table 1 is a declarative pass
   registry, each pass uniformly wrapped in trace spans, quarantine
   barriers and metrics, with per-function passes fanned out over a
   domain pool ([Opts.jobs]).  This driver is only the frame around it:
   verify the input, build the context, run the registry, rewrite, and
   assemble the report from [Context.stats].

   Hardening (§7's production stance) is unchanged: the input is
   verified before anything touches it, every pass and the emitter run
   under per-function quarantine, a failing fragment is demoted and the
   rewrite retried, and if the rewrite still cannot complete the run
   degrades to the identity rewrite ([Rewrite.run_protected]).
   [Opts.strict] inverts the policy and [Opts.max_quarantine] bounds how
   much degradation is acceptable. *)

module Obs = Bolt_obs.Obs
module Json = Bolt_obs.Json
module Metrics = Bolt_obs.Metrics

type report = {
  r_funcs : int;
  r_simple : int;
  r_icf_folded : int;
  r_icf_bytes : int;
  r_icp_promoted : int;
  r_inlined : int;
  r_frame_saves_removed : int;
  r_shrink_wrapped : int;
  r_profile_branches_matched : int;
  r_profile_branches_unmatched : int;
  r_profile_stale_records : int;
  r_profile_unknown_funcs : int;
  r_profile_staleness : float; (* stale records / all branch records *)
  r_recovery : Bolt_profile.Stale_match.stats option;
      (* stale-profile recovery breakdown; None when the profile was
         fresh (or recovery was disabled / impossible) *)
  r_dyno_before : Dyno_stats.t;
  r_dyno_after : Dyno_stats.t;
  r_layout_before : (string * int * Bolt_layout.Evaluator.result) list;
      (* per simple profiled function: name, exec count, offline layout
         evaluation — hottest first *)
  r_layout_after : (string * int * Bolt_layout.Evaluator.result) list;
  r_text_before : int;
  r_text_after : int;
  r_hot_size : int;
  r_cold_size : int;
  r_bad_layout : Report.finding list;
  r_quarantined : (string * string) list;
  r_diagnostics : Diag.record list;
  r_diag_errors : int;
  r_diag_warnings : int;
  r_identity_fallback : bool;
  r_log : string list;
}

(* The layout rows and dyno-stats of the current CFG state, as the
   stages layout-eval and dyno-stats named with [suffix], from one
   layout evaluation: the snapshot's rows give dyno-stats its layout
   rows.  When the evaluation fails, dyno-stats is skipped too, zero as
   a whole, rather than real counts beside zero layout rows. *)
let eval_state env suffix =
  let ctx = env.Passman.ctx in
  let layout =
    Passman.stage env ("layout-eval" ^ suffix) (fun () ->
        Quarantine.pass ctx ~stage:"layout-eval" ~default:None (fun () ->
            Some (Layout_bbs.snapshot ctx)))
  in
  let dyno =
    Passman.stage env ("dyno-stats" ^ suffix) (fun () ->
        Quarantine.pass ctx ~stage:"dyno-stats" ~default:(Dyno_stats.zero ())
          (fun () ->
            match layout with
            | Some rows -> Dyno_stats.collect ctx rows
            | None -> failwith "no layout evaluation"))
  in
  (Option.value ~default:[] layout, dyno)

let optimize ?(opts = Opts.default) ?obs (exe : Bolt_obj.Objfile.t)
    (prof : Bolt_profile.Fdata.t) : Bolt_obj.Objfile.t * report =
  let obs = match obs with Some o -> o | None -> Obs.create ~name:"bolt" () in
  (* Figure 3, stage 0: validate the container before trusting it.
     Structural damage is a clean rejection; lesser oddities are
     diagnostics (or, under --strict, also rejections). *)
  let issues =
    Obs.span obs "verify" (fun () ->
        let issues = Bolt_obj.Verify.run exe in
        Obs.incr obs ~by:(List.length issues) "verify.issues";
        issues)
  in
  (match Bolt_obj.Verify.fatal issues with
  | [] -> ()
  | i :: _ -> Context.err "invalid input: %s" i.Bolt_obj.Verify.v_what);
  let ctx = Context.create ~opts ~obs exe in
  let diag = ctx.Context.diag in
  List.iter
    (fun (i : Bolt_obj.Verify.issue) ->
      Diag.warnf diag ~stage:"verify" "%s" i.v_what)
    issues;
  if opts.strict && issues <> [] then
    raise
      (Diag.Strict_error
         (Printf.sprintf "verify: %s" (List.hd issues).Bolt_obj.Verify.v_what));
  (* Profile collected on a different revision?  Recover what the
     fingerprints can carry over before the matcher sees it, instead of
     letting every drifted record decay individually. *)
  let prof, recovery =
    if not opts.stale_match then (prof, None)
    else
      Obs.span obs "stale-match" (fun () ->
          match
            Bolt_profile.Stale_match.recover_if_stale
              ~fingerprints:exe.Bolt_obj.Objfile.fingerprints
              ~build_id:exe.Bolt_obj.Objfile.build_id prof
          with
          | Some (p, st) ->
              Diag.warnf diag ~stage:"stale-match"
                "stale profile recovered: %a" Bolt_profile.Stale_match.pp_stats
                st;
              Obs.incr obs ~by:st.Bolt_profile.Stale_match.st_exact
                "profile.recovery.exact";
              Obs.incr obs ~by:st.Bolt_profile.Stale_match.st_fuzzy
                "profile.recovery.fuzzy";
              Obs.incr obs ~by:st.Bolt_profile.Stale_match.st_inferred
                "profile.recovery.inferred";
              Obs.incr obs ~by:st.Bolt_profile.Stale_match.st_dropped
                "profile.recovery.dropped";
              (p, Some st)
          | None -> (prof, None))
  in
  let env = Passman.make_env ctx prof in
  (* Figure 3 front half: discover, disassemble, build CFGs, attach the
     profile — then the Table 1 registry, then the rewrite. *)
  Passman.run env Passman.pre_passes;
  let bad_layout =
    Passman.stage env "bad-layout" (fun () ->
        Quarantine.pass ctx ~stage:"bad-layout" ~default:[] (fun () ->
            Report.bad_layout ctx ~top:20))
  in
  let layout_before, dyno_before = eval_state env "-before" in
  Passman.run env Passman.table1;
  let layout_after, dyno_after = eval_state env "-after" in
  let rw, identity_fallback =
    Passman.stage env "rewrite" (fun () -> Rewrite.run_protected ctx)
  in
  Obs.incr obs ~by:(Diag.quarantined_count diag) "quarantine.funcs";
  Obs.incr obs ~by:(Diag.count diag Diag.Error) "diag.errors";
  Obs.incr obs ~by:(Diag.count diag Diag.Warning) "diag.warnings";
  let stat = Metrics.counter ctx.Context.stats in
  let branches_matched = stat "profile.matched_branches" in
  let branches_unmatched = stat "profile.unmatched_branches" in
  let stale_records = stat "profile.stale_records" in
  ( rw.Rewrite.out,
    {
      r_funcs = Array.length ctx.Context.funcs;
      r_simple = List.length (Context.simple_funcs ctx);
      r_icf_folded = stat "pass.icf.folded";
      r_icf_bytes = stat "pass.icf.bytes_saved";
      r_icp_promoted = stat "pass.icp.promoted";
      r_inlined = stat "pass.inline-small.inlined";
      r_frame_saves_removed = stat "pass.frame-opts.saves_removed";
      r_shrink_wrapped = stat "pass.shrink-wrapping.moved";
      r_profile_branches_matched = branches_matched;
      r_profile_branches_unmatched = branches_unmatched;
      r_profile_stale_records = stale_records;
      r_profile_unknown_funcs = stat "profile.unknown_funcs";
      r_profile_staleness =
        (let total = branches_matched + branches_unmatched in
         if total = 0 then 0.0
         else float_of_int stale_records /. float_of_int total);
      r_recovery = recovery;
      r_dyno_before = dyno_before;
      r_dyno_after = dyno_after;
      r_layout_before = layout_before;
      r_layout_after = layout_after;
      r_text_before = rw.Rewrite.text_size_before;
      r_text_after = rw.Rewrite.text_size_after;
      r_hot_size = rw.Rewrite.hot_size;
      r_cold_size = rw.Rewrite.cold_size;
      r_bad_layout = bad_layout;
      r_quarantined = Diag.quarantined diag;
      r_diagnostics = Diag.records diag;
      r_diag_errors = Diag.count diag Diag.Error;
      r_diag_warnings = Diag.count diag Diag.Warning;
      r_identity_fallback = identity_fallback;
      r_log = List.rev ctx.Context.log;
    } )

let pp_report ppf (r : report) =
  Fmt.pf ppf "BOLT report:@.";
  Fmt.pf ppf "  functions: %d (%d simple)@." r.r_funcs r.r_simple;
  Fmt.pf ppf "  icf: %d folded (%d bytes)@." r.r_icf_folded r.r_icf_bytes;
  Fmt.pf ppf "  icp: %d promoted, inline-small: %d, frame saves removed: %d, shrink-wrapped: %d@."
    r.r_icp_promoted r.r_inlined r.r_frame_saves_removed r.r_shrink_wrapped;
  Fmt.pf ppf "  profile: %d branch records matched, %d unmatched@."
    r.r_profile_branches_matched r.r_profile_branches_unmatched;
  Fmt.pf ppf
    "  profile decay: %d stale records, %d unknown functions (staleness %.2f%%)@."
    r.r_profile_stale_records r.r_profile_unknown_funcs
    (100.0 *. r.r_profile_staleness);
  (match r.r_recovery with
  | Some st ->
      Fmt.pf ppf "  stale recovery: %a (rate %.0f%%)@."
        Bolt_profile.Stale_match.pp_stats st
        (100.0 *. Bolt_profile.Stale_match.recovery_rate st)
  | None -> ());
  Fmt.pf ppf "  text: %d -> %d bytes (cold %d)@." r.r_text_before r.r_text_after
    r.r_cold_size;
  if r.r_quarantined <> [] then begin
    Fmt.pf ppf "  quarantined: %d function(s)@." (List.length r.r_quarantined);
    List.iter
      (fun (f, stage) -> Fmt.pf ppf "    %s (in %s)@." f stage)
      r.r_quarantined
  end;
  if r.r_identity_fallback then
    Fmt.pf ppf "  NOTE: rewrite failed; output is the unmodified input@.";
  if r.r_diag_errors > 0 || r.r_diag_warnings > 0 then
    Fmt.pf ppf "  diagnostics: %d error(s), %d warning(s)@." r.r_diag_errors
      r.r_diag_warnings;
  (let b = Layout_bbs.snapshot_totals r.r_layout_before
   and a = Layout_bbs.snapshot_totals r.r_layout_after in
   Fmt.pf ppf
     "  layout: ExtTSP %.1f -> %.1f, hot i-cache lines %d -> %d, hot i-TLB \
      pages %d -> %d@."
     b.Bolt_layout.Evaluator.ev_score a.Bolt_layout.Evaluator.ev_score
     b.Bolt_layout.Evaluator.ev_icache_lines
     a.Bolt_layout.Evaluator.ev_icache_lines
     b.Bolt_layout.Evaluator.ev_itlb_pages a.Bolt_layout.Evaluator.ev_itlb_pages);
  Fmt.pf ppf "  dyno-stats (profile-weighted, before -> after):@.";
  Dyno_stats.pp_comparison ppf ~before:r.r_dyno_before ~after:r.r_dyno_after

let recovery_json = function
  | None -> Json.Null
  | Some (st : Bolt_profile.Stale_match.stats) ->
      Json.Obj
        [
          ("funcs", Json.Int st.st_funcs);
          ("exact", Json.Int st.st_exact);
          ("fuzzy", Json.Int st.st_fuzzy);
          ("inferred", Json.Int st.st_inferred);
          ("dropped", Json.Int st.st_dropped);
          ("records_in", Json.Int st.st_records_in);
          ("records_kept", Json.Int st.st_records_kept);
          ("rate", Json.Float (Bolt_profile.Stale_match.recovery_rate st));
        ]

(* The report's contribution to the run manifest: everything a later
   perf PR wants to diff — pass outcomes, profile quality, dyno-stats
   deltas, quarantine and diagnostics — as stable JSON sections. *)
let manifest_sections (r : report) : (string * Json.t) list =
  [
    ( "report",
      Json.Obj
        [
          ("funcs", Json.Int r.r_funcs);
          ("simple", Json.Int r.r_simple);
          ("icf_folded", Json.Int r.r_icf_folded);
          ("icf_bytes", Json.Int r.r_icf_bytes);
          ("icp_promoted", Json.Int r.r_icp_promoted);
          ("inlined", Json.Int r.r_inlined);
          ("frame_saves_removed", Json.Int r.r_frame_saves_removed);
          ("shrink_wrapped", Json.Int r.r_shrink_wrapped);
          ("text_before", Json.Int r.r_text_before);
          ("text_after", Json.Int r.r_text_after);
          ("hot_size", Json.Int r.r_hot_size);
          ("cold_size", Json.Int r.r_cold_size);
          ("identity_fallback", Json.Bool r.r_identity_fallback);
        ] );
    ( "profile_quality",
      Json.Obj
        [
          ("branches_matched", Json.Int r.r_profile_branches_matched);
          ("branches_unmatched", Json.Int r.r_profile_branches_unmatched);
          ("stale_records", Json.Int r.r_profile_stale_records);
          ("unknown_funcs", Json.Int r.r_profile_unknown_funcs);
          ("staleness_ratio", Json.Float r.r_profile_staleness);
          ("recovery", recovery_json r.r_recovery);
        ] );
    ( "dyno_stats",
      Json.Obj
        [
          ("before", Dyno_stats.to_json r.r_dyno_before);
          ("after", Dyno_stats.to_json r.r_dyno_after);
          ( "delta",
            Dyno_stats.comparison_to_json ~before:r.r_dyno_before
              ~after:r.r_dyno_after );
        ] );
    ( "layout",
      (let ev_json (r : Bolt_layout.Evaluator.result) =
         Json.Obj
           [
             ("exttsp_score", Json.Float r.Bolt_layout.Evaluator.ev_score);
             ("hot_bytes", Json.Int r.Bolt_layout.Evaluator.ev_hot_bytes);
             ("icache_lines", Json.Int r.Bolt_layout.Evaluator.ev_icache_lines);
             ("itlb_pages", Json.Int r.Bolt_layout.Evaluator.ev_itlb_pages);
           ]
       in
       let after_by_name =
         List.map (fun (n, _, ev) -> (n, ev)) r.r_layout_after
       in
       let rec top n l =
         match (n, l) with
         | 0, _ | _, [] -> []
         | n, x :: tl -> x :: top (n - 1) tl
       in
       Json.Obj
         [
           ( "before",
             ev_json (Layout_bbs.snapshot_totals r.r_layout_before) );
           ("after", ev_json (Layout_bbs.snapshot_totals r.r_layout_after));
           ( "functions",
             (* hottest 100 functions, before/after paired by name *)
             Json.List
               (top 100 r.r_layout_before
               |> List.map (fun (name, exec, before) ->
                      Json.Obj
                        ([
                           ("func", Json.String name);
                           ("exec_count", Json.Int exec);
                           ("before", ev_json before);
                         ]
                        @
                        match List.assoc_opt name after_by_name with
                        | Some a -> [ ("after", ev_json a) ]
                        | None -> []))) );
         ]) );
    ( "quarantine",
      Json.List
        (List.map
           (fun (func, stage) ->
             Json.Obj
               [ ("func", Json.String func); ("stage", Json.String stage) ])
           r.r_quarantined) );
    ( "diagnostics",
      Json.Obj
        [
          ("errors", Json.Int r.r_diag_errors);
          ("warnings", Json.Int r.r_diag_warnings);
          ( "records",
            Json.List
              (List.map
                 (fun (d : Diag.record) ->
                   Json.Obj
                     ([
                        ("severity", Json.String (Diag.severity_name d.d_severity));
                        ("stage", Json.String d.d_stage);
                        ("msg", Json.String d.d_msg);
                      ]
                     @
                     match d.d_func with
                     | Some f -> [ ("func", Json.String f) ]
                     | None -> []))
                 r.r_diagnostics) );
        ] );
    ( "bad_layout",
      Json.List
        (List.map
           (fun (f : Report.finding) ->
             Json.Obj
               [
                 ("func", Json.String f.Report.bl_func);
                 ("block", Json.String f.Report.bl_block);
                 ("offset", Json.Int f.Report.bl_offset);
                 ("prev_count", Json.Int f.Report.bl_prev_count);
                 ("next_count", Json.Int f.Report.bl_next_count);
               ])
           r.r_bad_layout) );
  ]
