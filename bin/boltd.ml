(* boltd: the continuous-optimization daemon — BOLT as a data-center
   service rather than a one-shot CLI (§7).

     boltd --tape fleet.tape prog.x --out-exe prog.bolt.x
     boltd --spool /var/spool/fdata prog.x --interval 60 --max-ticks 10
     boltd --status boltd-state.json

   Tape mode replays a scripted event tape ("<time> <host> <path>" per
   line): events sharing an arrival time form one service step.  Spool
   mode polls a directory; every file found is ingested as an arriving
   shard and moved to DIR/ingested/.  Either way the service loop is
   the same: shards accumulate in a bounded-memory sketch, merged
   quality is reassessed each step, and when the trigger policy fires
   the target binary is re-optimized with stale recovery armed.

   Determinism: the loop runs on logical event time — pass --epoch to
   also pin the manifest clock, and a tape replay is then byte-identical
   for any line order and any -j.

   Exit codes: 0 success; 3 invalid input (no mode, empty tape,
   unreadable target/manifest). *)

open Cmdliner
module Obs = Bolt_obs.Obs
module Json = Bolt_obs.Json
module Service = Bolt_service.Service
module Sketch = Bolt_service.Sketch
module P = Bolt_pipeline.Pipeline

let load_target = function
  | None -> Ok None
  | Some path -> (
      match Bolt_obj.Objfile.load path with
      | exe -> Ok (Some { P.exe; cc = Bolt_minic.Driver.default_options })
      | exception Sys_error e -> Error e
      | exception Bolt_obj.Buf.Corrupt e ->
          Error (Printf.sprintf "%s: %s" path e))

let config ~topk ~budget ~jobs ~decay ~min_hosts ~min_coverage ~max_staleness
    ~min_recovery ~max_interval ~cooldown =
  {
    Service.c_topk = topk;
    c_budget = budget;
    c_trigger =
      {
        Service.tr_min_hosts = min_hosts;
        tr_min_coverage_pct = min_coverage;
        tr_max_staleness_pct = max_staleness;
        tr_min_recovery_rate = min_recovery;
        tr_max_interval = max_interval;
        tr_cooldown_hosts = cooldown;
      };
    c_jobs = max 1 jobs;
    c_decay = decay;
  }

let pp_step ppf (r : Service.step_report) =
  Fmt.pf ppf "step %3d t=%d: %d shard(s), %d host(s)%s%s@." r.Service.sr_step
    r.Service.sr_time r.Service.sr_events r.Service.sr_hosts
    (match r.Service.sr_quality with
    | Some q ->
        Printf.sprintf ", coverage %.1f%%, staleness %.1f%%"
          q.Bolt_fleet.Quality.q_coverage_pct
          q.Bolt_fleet.Quality.q_staleness_pct
    | None -> "")
    (match r.Service.sr_trigger with
    | Some reason ->
        if r.Service.sr_reoptimized then
          Printf.sprintf " -> TRIGGER (%s), re-optimized" reason
        else Printf.sprintf " -> TRIGGER (%s)" reason
    | None -> "")

let finish svc ~out ~out_exe ~trace_out ~history ~argv obs =
  Fmt.pr "%a" Service.pp svc;
  (match (out, Service.last_merged svc) with
  | Some path, Some merged ->
      Bolt_profile.Fdata.save path merged;
      Fmt.pr "wrote merged profile %s@." path
  | Some path, None ->
      Fmt.epr "boltd: warning: no merged profile to write to %s@." path
  | None, _ -> ());
  (match (out_exe, Service.target svc) with
  | Some path, Some b ->
      Bolt_obj.Objfile.save path b.P.exe;
      Fmt.pr "wrote %s (build %s)@." path
        (Service.expected_build_id svc)
  | Some path, None ->
      Fmt.epr "boltd: warning: no target binary to write to %s@." path
  | None, _ -> ());
  Bolt_obs.History.save_run ~tool:"boltd" ~argv
    ~sections:
      [
        Service.manifest_section svc;
        Bolt_fleet.Monitor.manifest_section (Service.monitor svc);
      ]
    ~workload:"service" ~build_id:(Service.expected_build_id svc) ?trace_out
    ?history obs

let run_status path =
  match Bolt_obs.Manifest.load path with
  | m ->
      Fmt.pr "%a" Service.pp_status_json m;
      0
  | exception Sys_error e ->
      Fmt.epr "boltd: %s@." e;
      3
  | exception _ ->
      Fmt.epr "boltd: %s is not a readable manifest@." path;
      3

let run tape spool status target out out_exe epoch jobs topk budget min_hosts
    min_coverage max_staleness min_recovery max_interval cooldown decay
    interval max_ticks trace_out history =
  match status with
  | Some path -> run_status path
  | None -> (
      match (tape, spool) with
      | None, None ->
          Fmt.epr "boltd: pick a mode: --tape FILE, --spool DIR or --status FILE@.";
          3
      | Some _, Some _ ->
          Fmt.epr "boltd: --tape and --spool are mutually exclusive@.";
          3
      | _ -> (
          match load_target target with
          | Error e ->
              Fmt.epr "boltd: cannot load target: %s@." e;
              3
          | Ok target ->
              let obs =
                Obs.create
                  ?clock:
                    (Option.map (fun e -> fun () -> float_of_int e) epoch)
                  ~enabled:(trace_out <> None || history <> None)
                  ~name:"boltd" ()
              in
              let cfg =
                config ~topk ~budget ~jobs ~decay ~min_hosts ~min_coverage
                  ~max_staleness ~min_recovery ~max_interval ~cooldown
              in
              let argv = Array.to_list Sys.argv in
              (match tape with
              | Some path -> (
                  match Service.load_tape path with
                  | exception Sys_error e ->
                      Fmt.epr "boltd: %s@." e;
                      3
                  | events, skips ->
                      List.iter
                        (fun s -> Fmt.epr "boltd: %a@." Service.pp_skip s)
                        skips;
                      if events = [] then begin
                        Fmt.epr "boltd: tape %s holds no events@." path;
                        3
                      end
                      else begin
                        let start_time =
                          List.fold_left
                            (fun a (e : Service.event) -> min a e.Service.ev_time)
                            max_int events
                        in
                        let svc =
                          Service.create ~obs ~config:cfg ?target ~start_time ()
                        in
                        let reports = Service.run svc events in
                        List.iter (fun r -> Fmt.pr "%a" pp_step r) reports;
                        finish svc ~out ~out_exe ~trace_out ~history ~argv obs;
                        0
                      end)
              | None ->
                  (* spool mode *)
                  let dir = Option.get spool in
                  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
                    Fmt.epr "boltd: spool %s is not a directory@." dir;
                    3
                  end
                  else begin
                    let ingested = Filename.concat dir "ingested" in
                    if not (Sys.file_exists ingested) then Unix.mkdir ingested 0o755;
                    let svc =
                      Service.create ~obs ~config:cfg ?target
                        ~start_time:(Option.value ~default:0 epoch) ()
                    in
                    let tick = ref 0 in
                    let continue () = max_ticks <= 0 || !tick < max_ticks in
                    while continue () do
                      incr tick;
                      let entries, skips =
                        Service.spool_scan ~default_time:!tick dir
                      in
                      List.iter
                        (fun s -> Fmt.epr "boltd: %a@." Service.pp_skip s)
                        skips;
                      if entries <> [] then begin
                        let r = Service.step svc (List.map snd entries) in
                        Fmt.pr "%a" pp_step r;
                        List.iter
                          (fun (path, _) ->
                            Sys.rename path
                              (Filename.concat ingested (Filename.basename path)))
                          entries
                      end;
                      if continue () && interval > 0.0 then Unix.sleepf interval
                    done;
                    finish svc ~out ~out_exe ~trace_out ~history ~argv obs;
                    0
                  end)))

let tape =
  Arg.(
    value
    & opt (some file) None
    & info [ "tape" ] ~docv:"FILE"
        ~doc:
          "Replay a scripted event tape: one \"<time> <host> <shard-path>\" \
           per line ('#' comments). Events sharing a time form one service \
           step. The replay is deterministic for any line order and any -j.")

let spool =
  Arg.(
    value
    & opt (some string) None
    & info [ "spool" ] ~docv:"DIR"
        ~doc:
          "Poll $(docv) for arriving fdata shards; each poll is one service \
           step and consumed shards move to $(docv)/ingested/.")

let status =
  Arg.(
    value
    & opt (some file) None
    & info [ "status" ] ~docv:"FILE"
        ~doc:"Render the ASCII service status from a manifest written by \
              --trace-out, then exit.")

let target =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"TARGET.x"
        ~doc:
          "BELF binary to re-optimize when the trigger fires. Omitted, the \
           service tracks quality and records triggers without rewriting.")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "o" ] ~docv:"FILE" ~doc:"Write the last merged fleet profile.")

let out_exe =
  Arg.(
    value
    & opt (some string) None
    & info [ "out-exe" ] ~docv:"FILE"
        ~doc:"Write the current (possibly re-optimized) target binary.")

let epoch =
  Arg.(
    value
    & opt (some int) None
    & info [ "epoch" ] ~docv:"SECONDS"
        ~doc:
          "Pin the telemetry clock to a constant epoch: manifests and \
           history records become byte-reproducible (all durations zero).")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the rewrite; results are byte-identical for \
           any value.")

let topk =
  Arg.(
    value & opt int 512
    & info [ "topk" ] ~docv:"K"
        ~doc:"Sketch bound: functions retained per host (largest event mass).")

let budget =
  Arg.(
    value
    & opt int (64 * 1024 * 1024)
    & info [ "sketch-budget" ] ~docv:"BYTES"
        ~doc:
          "Sketch bound: global byte budget over all hosts' retained \
           entries (cost-model estimate; evictions are counted in \
           service.sketch_evictions).")

let min_hosts =
  Arg.(
    value & opt int 4
    & info [ "min-hosts" ] ~docv:"N"
        ~doc:"Trigger gate: no re-optimization before $(docv) hosts reported.")

let min_coverage =
  Arg.(
    value & opt float 25.0
    & info [ "trigger-coverage" ] ~docv:"PCT"
        ~doc:"Trigger gate: minimum merged-profile coverage.")

let max_staleness =
  Arg.(
    value & opt float 60.0
    & info [ "trigger-staleness" ] ~docv:"PCT"
        ~doc:"Trigger gate: maximum share of events from stale shards.")

let min_recovery =
  Arg.(
    value & opt float 0.3
    & info [ "trigger-recovery" ] ~docv:"RATE"
        ~doc:"Trigger gate: minimum stale-recovery rate, when recovery ran.")

let max_interval =
  Arg.(
    value & opt int 0
    & info [ "max-interval" ] ~docv:"SECONDS"
        ~doc:
          "Max-staleness timer: re-optimize at least every $(docv) seconds \
           of logical time while shards arrive (0 = off).")

let cooldown =
  Arg.(
    value & opt int 1
    & info [ "cooldown-hosts" ] ~docv:"N"
        ~doc:"Fresh shard arrivals required between quality triggers.")

let decay =
  Arg.(
    value
    & opt (some float) None
    & info [ "decay" ] ~docv:"LAMBDA"
        ~doc:"Exponential age decay for the merge (see bmerge --decay).")

let interval =
  Arg.(
    value & opt float 1.0
    & info [ "interval" ] ~docv:"SECONDS"
        ~doc:"Spool mode: seconds between polls.")

let max_ticks =
  Arg.(
    value & opt int 0
    & info [ "max-ticks" ] ~docv:"N"
        ~doc:"Spool mode: stop after $(docv) polls (0 = run forever).")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a JSON run manifest (service + fleet_health sections) to \
           $(docv); boltd --status renders it.")

let history =
  Arg.(
    value
    & opt (some string) None
    & info [ "history" ] ~docv:"FILE"
        ~doc:
          "Append a compact run record (service metrics, fleet health) to \
           the JSONL run-history store at $(docv); gate with bstat.")

let cmd =
  Cmd.v
    (Cmd.info "boltd"
       ~doc:"continuous-optimization service over arriving fdata shards")
    Term.(
      const run $ tape $ spool $ status $ target $ out $ out_exe $ epoch $ jobs
      $ topk $ budget $ min_hosts $ min_coverage $ max_staleness $ min_recovery
      $ max_interval $ cooldown $ decay $ interval $ max_ticks $ trace_out
      $ history)

let () = exit (Cmd.eval' cmd)
