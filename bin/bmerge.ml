(* bmerge: fold per-host fdata shards into one fleet profile — the
   merge-fdata analog.

     bmerge host*.fdata -o fleet.fdata
     bmerge host*.fdata -o fleet.fdata --weight host03.dc1=4 --decay 1e-5
     bmerge host*.fdata -o fleet.fdata --expect-build-id prog.x --report

   The merge is commutative and associative with saturating 64-bit
   counts: output bytes are identical for any shard ordering.  Without
   --report, --health, --expect-build-id, --trace-out or --history
   nothing reads per-shard records, so each shard streams straight into
   the accumulator; the bytes are the same either way.
   --expect-build-id takes either a hex id or a BELF file to read one
   from; shards profiled against any other revision count as stale in
   the quality report and the health view.  Without it the modal shard
   revision is the one both judge against, and the one stamped on the
   merged profile.  When it names a BELF file with a fingerprint
   table, stale shards that carry their own fingerprints are recovered
   (renamed/remapped) against that revision before merging.

   Exit codes: 0 success; 3 invalid input (no shards, unreadable
   --expect-build-id); 4 --strict-shards failure; 6 merge succeeded but
   one or more shards were skipped as corrupt/truncated. *)

open Cmdliner
module Obs = Bolt_obs.Obs
module Json = Bolt_obs.Json
module Merge = Bolt_fleet.Merge
module Monitor = Bolt_fleet.Monitor
module Quality = Bolt_fleet.Quality

let parse_weight s =
  match String.index_opt s '=' with
  | Some i -> (
      let host = String.sub s 0 i in
      let w = String.sub s (i + 1) (String.length s - i - 1) in
      match float_of_string_opt w with
      | Some f when f >= 0.0 && host <> "" -> Ok (host, f)
      | _ -> Error (`Msg (Printf.sprintf "bad weight %S (want HOST=FLOAT >= 0)" s)))
  | None -> Error (`Msg (Printf.sprintf "bad weight %S (want HOST=FLOAT)" s))

let weight_conv = Arg.conv (parse_weight, fun ppf (h, w) -> Fmt.pf ppf "%s=%g" h w)

(* --expect-build-id: a BELF path (read its stamp — and its fingerprint
   table, which enables stale-shard recovery) or a literal hex id *)
let resolve_build_id = function
  | None -> (None, [])
  | Some spec ->
      if Sys.file_exists spec then (
        let exe = Bolt_obj.Objfile.load spec in
        if exe.Bolt_obj.Objfile.build_id = "" then
          Fmt.epr "bmerge: warning: %s carries no build-id (pre-v4 BELF?)@." spec;
        (Some exe.Bolt_obj.Objfile.build_id, exe.Bolt_obj.Objfile.fingerprints))
      else (Some spec, [])

let print_merged out n (merged : Bolt_profile.Fdata.t) =
  Fmt.pr "wrote %s: %d shards -> %d branch records, %d ranges, %d ip samples@."
    out n
    (List.length merged.Bolt_profile.Fdata.branches)
    (List.length merged.Bolt_profile.Fdata.ranges)
    (List.length merged.Bolt_profile.Fdata.samples)

(* Load [paths] through [load], report the skipped shards, and hand the
   kept ones to [k]; a clean merge exits 6 when any shard was skipped. *)
let with_shards load paths k =
  match load paths with
  | exception Sys_error e ->
      Fmt.epr "bmerge: %s@." e;
      4
  | exception Bolt_profile.Fdata.Bad_format e ->
      Fmt.epr "bmerge: %s@." e;
      4
  | kept, skipped ->
      List.iter (fun s -> Fmt.epr "bmerge: %a@." Merge.pp_skip s) skipped;
      if kept = [] then begin
        Fmt.epr "bmerge: all %d shard(s) skipped, nothing to merge@."
          (List.length skipped);
        3
      end
      else
        let code = k kept skipped in
        if code = 0 && skipped <> [] then 6 else code

let run shards out weights decay expect strict_shards report health trace_out
    history =
  if shards = [] then begin
    Fmt.epr "bmerge: no input shards@.";
    3
  end
  else if
    (* the quality report, the health view, stale recovery against a
       target and the manifest/history records that carry them all read
       each shard's record lists; with none of them requested, shards
       stream straight into the accumulator *)
    not
      (report || health || expect <> None || trace_out <> None
     || history <> None)
  then
    with_shards (Merge.load_texts ~strict:strict_shards) shards
      (fun texts _ ->
        let merged =
          Merge.merge_stream
            ~opts:{ Merge.weights; decay; expect_build_id = None }
            texts
        in
        Bolt_profile.Fdata.save out merged;
        print_merged out (List.length texts) merged;
        0)
  else
    with_shards (Merge.load_shards ~strict:strict_shards) shards
      (fun loaded skipped ->
        if
          (* --health/--report over zero records would feed Quality/Monitor
             an all-empty fleet and report 0% everything as if it were
             measured; refuse with a structured diag instead *)
          (report || health)
          && List.for_all
               (fun (sh : Merge.loaded) ->
                 sh.Merge.sh_prof.Bolt_profile.Fdata.branches = []
                 && sh.Merge.sh_prof.Bolt_profile.Fdata.ranges = []
                 && sh.Merge.sh_prof.Bolt_profile.Fdata.samples = [])
               loaded
        then begin
          Fmt.epr
            "bmerge: error: --%s over %d shard(s) carrying 0 records: \
             nothing to assess (collect profiles before gating on them)@."
            (if health then "health" else "report")
            (List.length loaded);
          3
        end
        else
        match resolve_build_id expect with
        | exception _ ->
            Fmt.epr "bmerge: cannot read build-id from %s@." (Option.get expect);
            3
        | expect_build_id, fingerprints ->
            let obs =
              Obs.create
                ~enabled:(trace_out <> None || history <> None)
                ~name:"bmerge" ()
            in
            (* the fleet round: stale recovery against the target, the
               merge, the quality report and a one-tick health view *)
            let monitor = Monitor.create () in
            let merged, tick =
              Monitor.observe ~obs monitor
                ~opts:{ Merge.weights; decay; expect_build_id }
                ~fingerprints loaded
            in
            let q = tick.Monitor.tk_quality in
            Quality.to_obs obs q;
            Obs.span obs "save" (fun () -> Bolt_profile.Fdata.save out merged);
            print_merged out (List.length loaded) merged;
            if report then Fmt.pr "%a" Quality.pp q;
            if health then Fmt.pr "%a" Monitor.pp monitor;
            Bolt_obs.History.save_run ~tool:"bmerge"
              ~argv:(Array.to_list Sys.argv)
              ~sections:
                [
                  ( "run",
                    Json.Obj
                      [
                        ("out", Json.String out);
                        ( "shards",
                          Json.List (List.map (fun s -> Json.String s) shards) );
                        ( "skipped_shards",
                          Json.List
                            (List.map
                               (fun (s : Merge.skip) ->
                                 Json.Obj
                                   [
                                     ("path", Json.String s.Merge.sk_path);
                                     ("reason", Json.String s.Merge.sk_reason);
                                   ])
                               skipped) );
                      ] );
                  Quality.manifest_section q;
                  Monitor.manifest_section monitor;
                ]
              ~workload:"fleet-merge" ~build_id:tick.Monitor.tk_expected_build_id
              ?trace_out ?history obs;
            0)

let shards = Arg.(value & pos_all file [] & info [] ~docv:"SHARD")

let out =
  Arg.(value & opt string "fleet.fdata" & info [ "o" ] ~doc:"Merged profile output.")

let weights =
  Arg.(
    value
    & opt_all weight_conv []
    & info [ "weight" ] ~docv:"HOST=W"
        ~doc:
          "Multiply $(i,HOST)'s counts by $(i,W) (repeatable). Hosts are \
           matched by shard header, falling back to the shard file name.")

let decay =
  Arg.(
    value
    & opt (some float) None
    & info [ "decay" ] ~docv:"LAMBDA"
        ~doc:
          "Exponential age decay: scale each shard by \
           exp(-$(docv) * age), age measured back from the newest shard \
           timestamp.")

let expect =
  Arg.(
    value
    & opt (some string) None
    & info [ "expect-build-id" ] ~docv:"ID|EXE"
        ~doc:
          "Target binary revision: a hex build-id, or a BELF file to read \
           one from. Shards from other revisions count as stale in the \
           quality report and the health view. Default: the most common \
           shard build-id.")

let strict_shards =
  Arg.(
    value & flag
    & info [ "strict-shards" ]
        ~doc:
          "Fail fast on the first unreadable or malformed shard instead of \
           skipping it (exit code 4).")

let report =
  Arg.(value & flag & info [ "report" ] ~doc:"Print the merge quality report.")

let health =
  Arg.(
    value & flag
    & info [ "health" ]
        ~doc:
          "Print the fleet health view: per-host coverage, shard age, \
           rollout state (build-id vs the merged profile's) and threshold \
           alerts.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write a JSON run manifest (spans, quality metrics) to $(docv).")

let history =
  Arg.(
    value
    & opt (some string) None
    & info [ "history" ] ~docv:"FILE"
        ~doc:
          "Append a compact run record (quality metrics, fleet health, \
           merged build-id) to the JSONL run-history store at $(docv); \
           inspect the trajectory with bstat.")

let cmd =
  Cmd.v
    (Cmd.info "bmerge" ~doc:"merge per-host fdata shards into a fleet profile")
    Term.(
      const run $ shards $ out $ weights $ decay $ expect $ strict_shards
      $ report $ health $ trace_out $ history)

let () = exit (Cmd.eval' cmd)
