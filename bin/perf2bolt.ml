(* perf2bolt: aggregate raw samples against a binary's symbol table and
   produce the fdata profile BOLT consumes.

     perf2bolt -p samples.bprf -o prog.fdata prog.x
     perf2bolt -p samples.bprf --host web01 --merge-into fleet.fdata prog.x

   With --host/--timestamp the shard carries a fleet provenance header
   (host, the binary's build-id, timestamp, event count).  --merge-into
   folds the fresh shard into an existing aggregate in place: the
   incremental path for hosts streaming samples into one fleet profile. *)

open Cmdliner
module Obs = Bolt_obs.Obs
module Json = Bolt_obs.Json

let run exe_path samples_path out host timestamp merge_into trace_out history =
  let obs =
    Obs.create
      ~enabled:(trace_out <> None || history <> None)
      ~name:"perf2bolt" ()
  in
  let exe = Obs.span obs "load-binary" (fun () -> Bolt_obj.Objfile.load exe_path) in
  let raw =
    Obs.span obs "load-samples" (fun () ->
        let raw = Bolt_profile.Samples.load samples_path in
        Obs.incr obs ~by:raw.Bolt_sim.Machine.rp_samples "samples.raw";
        raw)
  in
  let header =
    {
      Bolt_profile.Fdata.hd_host = host;
      hd_build_id = exe.Bolt_obj.Objfile.build_id;
      hd_timestamp = timestamp;
      hd_events = Int64.of_int raw.Bolt_sim.Machine.rp_samples;
      hd_weight = 1.0;
    }
  in
  let fdata =
    Obs.span obs "aggregate" (fun () ->
        let fdata = Bolt_profile.Perf2bolt.convert ~header exe raw in
        Obs.incr obs
          ~by:(List.length fdata.Bolt_profile.Fdata.branches)
          "fdata.branch_records";
        Obs.incr obs ~by:(List.length fdata.Bolt_profile.Fdata.ranges) "fdata.ranges";
        Obs.incr obs
          ~by:(List.length fdata.Bolt_profile.Fdata.samples)
          "fdata.ip_samples";
        fdata)
  in
  let out, fdata =
    match merge_into with
    | Some agg ->
        (* fold the fresh shard into the aggregate; first shard seeds it *)
        let fdata =
          Obs.span obs "merge-into" (fun () ->
              let shards =
                (if Sys.file_exists agg then
                   [ Bolt_fleet.Merge.load_shard agg ]
                 else [])
                @ [ Bolt_fleet.Merge.shard_of_profile ~name:"new-shard" fdata ]
              in
              Bolt_fleet.Merge.merge ~obs shards)
        in
        (agg, fdata)
    | None -> (out, fdata)
  in
  (* Atomic save: write a sibling temp file, then rename over the target.
     --merge-into rewrites the accumulated fleet aggregate in place — a
     crash mid-write must leave either the old aggregate or the new one,
     never a torn file that poisons every later merge. *)
  Obs.span obs "save-fdata" (fun () ->
      let tmp = out ^ ".tmp" in
      Bolt_profile.Fdata.save tmp fdata;
      Sys.rename tmp out);
  Fmt.pr "wrote %s: %d branch records, %d ranges, %d ip samples@." out
    (List.length fdata.Bolt_profile.Fdata.branches)
    (List.length fdata.Bolt_profile.Fdata.ranges)
    (List.length fdata.Bolt_profile.Fdata.samples);
  Bolt_obs.History.save_run ~tool:"perf2bolt" ~argv:(Array.to_list Sys.argv)
    ~sections:
      [
        ("run", Json.Obj [ ("lbr", Json.Bool raw.Bolt_sim.Machine.rp_lbr) ]);
      ]
    ~workload:(Filename.basename exe_path)
    ~build_id:exe.Bolt_obj.Objfile.build_id ?trace_out ?history obs;
  0

let exe_path = Arg.(required & pos 0 (some file) None & info [] ~docv:"EXE")

let samples =
  Arg.(required & opt (some file) None & info [ "p" ] ~docv:"SAMPLES" ~doc:"Raw samples.")

let out = Arg.(value & opt string "out.fdata" & info [ "o" ] ~doc:"Output profile.")

let host =
  Arg.(
    value & opt string ""
    & info [ "host" ] ~docv:"NAME"
        ~doc:"Stamp the shard's provenance header with this host name.")

let timestamp =
  Arg.(
    value & opt int 0
    & info [ "timestamp" ] ~docv:"SECONDS"
        ~doc:"Collection time (seconds since the fleet epoch) for the \
              provenance header; age-decay in bmerge keys on it.")

let merge_into =
  Arg.(
    value
    & opt (some string) None
    & info [ "merge-into" ] ~docv:"FDATA"
        ~doc:
          "Fold the fresh shard into the aggregate profile at $(docv) in \
           place (created if absent), instead of writing to $(b,-o).")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write a JSON run manifest (spans, fdata record metrics) to $(docv).")

let history =
  Arg.(
    value
    & opt (some string) None
    & info [ "history" ] ~docv:"FILE"
        ~doc:
          "Append a compact run record (sample/record counts, build-id) to \
           the JSONL run-history store at $(docv); inspect the trajectory \
           with bstat.")

let cmd =
  Cmd.v
    (Cmd.info "perf2bolt" ~doc:"convert raw samples to an fdata profile")
    Term.(
      const run $ exe_path $ samples $ out $ host $ timestamp $ merge_into
      $ trace_out $ history)

let () = exit (Cmd.eval' cmd)
