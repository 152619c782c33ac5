(* obolt: the post-link optimizer CLI, mirroring the paper's llvm-bolt
   invocation:

     obolt prog.x -b prog.fdata -o prog.bolted.x \
       -reorder-blocks=ext-tsp -reorder-functions=hfsort+ \
       -split-functions=3 -split-all-cold -split-eh -icf=1 -dyno-stats  *)

open Cmdliner
module Obs = Bolt_obs.Obs
module Json = Bolt_obs.Json

(* Exit codes: 0 success, 3 invalid input (binary or profile), 4 a
   --strict violation, 5 the --max-quarantine budget was exceeded.
   (1 and 2 belong to cmdliner: user error / internal error.) *)
let exit_invalid_input = 3
let exit_strict = 4
let exit_quarantine = 5

let run exe_path fdata out reorder_blocks reorder_functions split_functions
    split_all_cold split_eh icf icp inline_small plt sro frame_opts shrink sctc
    strip_nops stale_match dyno_stats report_bad_layout use_relocs strict
    max_quarantine print_funcs trace_out time_opts history jobs =
  try
  (* telemetry is free when none of --trace-out/--time-opts/--history
     asks for it; enabled, it costs a handful of spans per run *)
  let obs =
    Obs.create
      ~enabled:(trace_out <> None || time_opts || history <> None)
      ~name:"obolt" ()
  in
  let exe = Obs.span obs "load-binary" (fun () -> Bolt_obj.Objfile.load exe_path) in
  let prof, prof_warnings =
    Obs.span obs "load-profile" (fun () ->
        let prof, warnings = Bolt_profile.Fdata.load_with_warnings ~strict fdata in
        Obs.incr obs ~by:(List.length warnings) "profile.parse_warnings";
        Obs.incr obs ~by:(List.length prof.Bolt_profile.Fdata.branches)
          "profile.branch_records";
        (prof, warnings))
  in
  List.iter (Fmt.epr "obolt: %a@." Bolt_profile.Fdata.pp_warning) prof_warnings;
  let opts =
    {
      Bolt_core.Opts.default with
      strict;
      max_quarantine;
      reorder_blocks =
        (match reorder_blocks with
        | "none" -> Bolt_core.Opts.Rb_none
        | "cache" -> Bolt_core.Opts.Rb_cache
        | "cache+" -> Bolt_core.Opts.Rb_cache_plus
        | "ext-tsp" -> Bolt_core.Opts.Rb_ext_tsp
        | s -> Fmt.failwith "unknown -reorder-blocks=%s" s);
      reorder_functions =
        (match reorder_functions with
        | "none" -> Bolt_core.Opts.Rf_none
        | "hfsort" -> Bolt_core.Opts.Rf_hfsort
        | "hfsort+" -> Bolt_core.Opts.Rf_hfsort_plus
        | "pettis-hansen" -> Bolt_core.Opts.Rf_pettis_hansen
        | s -> Fmt.failwith "unknown -reorder-functions=%s" s);
      split_functions =
        (match split_functions with
        | 0 -> Bolt_core.Opts.Split_none
        | 1 | 2 -> Bolt_core.Opts.Split_large
        | _ -> Bolt_core.Opts.Split_all);
      split_all_cold;
      split_eh;
      icf;
      icp;
      inline_small;
      plt;
      simplify_ro_loads = sro;
      frame_opts;
      shrink_wrapping = shrink;
      sctc;
      strip_nops;
      stale_match;
      use_relocations = use_relocs;
      jobs =
        (match jobs with
        | Some j -> j
        | None -> Bolt_core.Pool.default_jobs ());
    }
  in
  let exe', report = Bolt_core.Bolt.optimize ~opts ~obs exe prof in
  Obs.span obs "save-binary" (fun () -> Bolt_obj.Objfile.save out exe');
  Fmt.pr "wrote %s@." out;
  Obs.finish obs;
  if time_opts then Fmt.pr "%a" Bolt_obs.Trace.pp_table obs.Obs.trace;
  Bolt_obs.History.save_run ~tool:"obolt" ~argv:(Array.to_list Sys.argv)
    ~sections:(Bolt_core.Bolt.manifest_sections report)
    ~workload:(Filename.basename exe_path)
    ~build_id:exe'.Bolt_obj.Objfile.build_id ?trace_out ?history obs;
  if dyno_stats then Fmt.pr "%a@." Bolt_core.Bolt.pp_report report;
  if report_bad_layout then begin
    Fmt.pr "bad-layout findings (original layout):@.";
    List.iter (Fmt.pr "  %a" Bolt_core.Report.pp_finding) report.Bolt_core.Bolt.r_bad_layout
  end;
  List.iter
    (fun name ->
      let ctx = Bolt_core.Context.create ~opts exe in
      Bolt_core.Passman.(run (make_env ctx prof) [ find "build-cfg" ]);
      match Bolt_core.Context.func ctx name with
      | Some fb -> Fmt.pr "%a@." Bolt_core.Bfunc.pp fb
      | None -> Fmt.epr "no function %s@." name)
    print_funcs;
  0
  with
  | Bolt_obj.Buf.Corrupt msg ->
      Fmt.epr "obolt: corrupt input: %s@." msg;
      exit_invalid_input
  | Bolt_core.Context.Bolt_error msg ->
      Fmt.epr "obolt: %s@." msg;
      exit_invalid_input
  | Bolt_profile.Fdata.Bad_format msg ->
      Fmt.epr "obolt: bad profile: %s@." msg;
      exit_invalid_input
  | Bolt_core.Diag.Strict_error msg ->
      Fmt.epr "obolt: strict mode violation: %s@." msg;
      exit_strict
  | Bolt_core.Diag.Quarantine_limit n ->
      Fmt.epr "obolt: quarantine limit exceeded: %d function(s) demoted@." n;
      exit_quarantine

let exe_path = Arg.(required & pos 0 (some file) None & info [] ~docv:"EXE")
let fdata = Arg.(required & opt (some file) None & info [ "b" ] ~doc:"fdata profile.")
let out = Arg.(value & opt string "bolted.x" & info [ "o" ] ~doc:"Output binary.")

let reorder_blocks =
  Arg.(
    value
    & opt string "ext-tsp"
    & info [ "reorder-blocks" ]
        ~doc:"none|cache|cache+|ext-tsp (cache/cache+ kept for A/B runs)")

let reorder_functions =
  Arg.(value & opt string "hfsort+" & info [ "reorder-functions" ] ~doc:"none|hfsort|hfsort+|pettis-hansen")

let split_functions =
  Arg.(value & opt int 3 & info [ "split-functions" ] ~doc:"0=off 1/2=large 3=all")

let split_all_cold = Arg.(value & opt bool true & info [ "split-all-cold" ])
let split_eh = Arg.(value & opt bool true & info [ "split-eh" ])
let icf = Arg.(value & opt bool true & info [ "icf" ])
let icp = Arg.(value & opt bool true & info [ "icp" ])
let inline_small = Arg.(value & opt bool true & info [ "inline-small" ])
let plt = Arg.(value & opt bool true & info [ "plt" ])
let sro = Arg.(value & opt bool true & info [ "simplify-ro-loads" ])
let frame_opts = Arg.(value & opt bool true & info [ "frame-opts" ])
let shrink = Arg.(value & opt bool true & info [ "shrink-wrapping" ])
let sctc = Arg.(value & opt bool true & info [ "sctc" ])
let strip_nops = Arg.(value & opt bool true & info [ "strip-nops" ])

let stale_match =
  Arg.(
    value & opt bool true
    & info [ "stale-match" ]
        ~doc:
          "Recover a profile whose build-id doesn't match the input binary \
           via fingerprint matching before attaching it.")
let dyno_stats = Arg.(value & flag & info [ "dyno-stats" ])
let report_bad_layout = Arg.(value & flag & info [ "report-bad-layout" ])

let use_relocs =
  Arg.(value & opt (some bool) None & info [ "use-relocations" ] ~doc:"Force relocations mode on/off.")

let strict =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Fail hard instead of degrading: any verifier issue, malformed \
           profile record or function quarantine aborts the run.")

let max_quarantine =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-quarantine" ] ~docv:"N"
        ~doc:"Abort when more than $(docv) functions are quarantined.")

let print_funcs =
  Arg.(value & opt_all string [] & info [ "print-cfg" ] ~docv:"FUNC" ~doc:"Dump a function's CFG.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the machine-readable run manifest (trace spans, metrics \
           registry, dyno-stats, profile quality, quarantine diagnostics) \
           as JSON to $(docv).")

let time_opts =
  Arg.(
    value & flag
    & info [ "time-opts" ]
        ~doc:
          "Print a per-pass wall-clock timing table (llvm-bolt's -time-opts), \
           including a per-function p50/p99 column for parallel passes.")

let history =
  Arg.(
    value
    & opt (some string) None
    & info [ "history" ] ~docv:"FILE"
        ~doc:
          "Append a compact run record (meta, per-pass wall times, metrics, \
           dyno-stats, build-id, git revision) to the JSONL run-history \
           store at $(docv); inspect the trajectory with bstat.")

let jobs =
  let jobs_conv =
    ( (fun s ->
        match int_of_string_opt s with
        | Some j when j >= 1 -> `Ok j
        | _ -> `Error (s ^ ": need at least one domain")),
      Format.pp_print_int )
  in
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for per-function passes (default: the machine's \
           recommended domain count). Output is byte-identical for any $(docv).")

let cmd =
  Cmd.v
    (Cmd.info "obolt" ~doc:"post-link binary optimizer (BOLT reproduction)")
    Term.(
      const run $ exe_path $ fdata $ out $ reorder_blocks $ reorder_functions
      $ split_functions $ split_all_cold $ split_eh $ icf $ icp $ inline_small $ plt
      $ sro $ frame_opts $ shrink $ sctc $ strip_nops $ stale_match
      $ dyno_stats $ report_bad_layout
      $ use_relocs $ strict $ max_quarantine $ print_funcs $ trace_out $ time_opts
      $ history $ jobs)

let () = exit (Cmd.eval' cmd)
