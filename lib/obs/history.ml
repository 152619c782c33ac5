(* Append-only JSONL run-history store: the longitudinal layer on top of
   the single-run manifest.

   One record per tool run, one compact JSON object per line
   (`obolt-history/1`).  A record is a manifest with the bulky envelope
   stripped: the full trace collapses to the root wall time plus a
   per-span-name duration table, the event log is dropped, and the
   `meta` stanza, metrics registry and every tool section survive
   verbatim.  Records additionally carry the identity fields a fleet
   operator keys trajectories on: workload label, git revision and the
   binary build-id the run measured.

   Durability model: [append] writes a whole line with a single
   flush-on-close, so concurrent appenders from separate processes
   interleave at line granularity and [load] tolerates the one failure
   mode that leaves — a torn final line from a writer that died
   mid-write — by skipping unparseable lines and reporting them as
   warnings instead of failing the whole read.  `bstat` and the bench
   gate therefore keep working against a history file that is being
   appended to while they read it. *)

let schema = "obolt-history/1"

type warning = { w_line : int; w_reason : string }

let pp_warning ppf w =
  Fmt.pf ppf "history line %d skipped: %s" w.w_line w.w_reason

(* ---- record construction ---- *)

(* Aggregate span durations by name (a parallel pass contributes one span
   per domain; summing them keeps the table small and diffable). *)
let span_table (manifest : Json.t) : (string * float) list =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (s : Manifest.flat_span) ->
      if s.Manifest.fs_depth > 0 then begin
        if not (Hashtbl.mem tbl s.Manifest.fs_name) then
          order := s.Manifest.fs_name :: !order;
        Hashtbl.replace tbl s.Manifest.fs_name
          (s.Manifest.fs_dur
          +. try Hashtbl.find tbl s.Manifest.fs_name with Not_found -> 0.0)
      end)
    (Manifest.flat_spans manifest);
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

let envelope_fields =
  [ "schema"; "tool"; "argv"; "meta"; "trace"; "metrics"; "events" ]

(* Detect the current git revision for stamping records.  The
   OBOLT_GIT_REV environment variable wins (hermetic builds, tests);
   otherwise ask git, quietly returning "" when the working directory is
   not a repository (e.g. a dune sandbox). *)
let detect_git_rev () =
  match Sys.getenv_opt "OBOLT_GIT_REV" with
  | Some rev -> rev
  | None -> (
      try
        let ic =
          Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
        in
        let rev = try input_line ic with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> String.trim rev
        | _ -> ""
      with _ -> "")

(* Compress a full run manifest into a one-line history record. *)
let of_manifest ?(workload = "") ?(git_rev = "") ?(build_id = "")
    (manifest : Json.t) : Json.t =
  let tool =
    Option.value ~default:"?" (Json.get_string (Json.member "tool" manifest))
  in
  let wall_s =
    match Json.member "trace" manifest with
    | Some tr -> Option.value ~default:0.0 (Json.get_float (Json.member "dur_s" tr))
    | None -> 0.0
  in
  let meta =
    match Json.member "meta" manifest with
    | Some m -> m
    | None ->
        (* legacy manifest: synthesize the stanza from the envelope *)
        Json.Obj
          [
            ("tool", Json.String tool);
            ( "argv",
              Option.value ~default:(Json.List [])
                (Json.member "argv" manifest) );
            ( "schema",
              Json.String
                (Option.value ~default:""
                   (Json.get_string (Json.member "schema" manifest))) );
            ( "version",
              match Manifest.version_of manifest with
              | Some v -> Json.Int v
              | None -> Json.Null );
          ]
  in
  let sections =
    match manifest with
    | Json.Obj fields ->
        List.filter (fun (k, _) -> not (List.mem k envelope_fields)) fields
    | _ -> []
  in
  Json.Obj
    ([
       ("schema", Json.String schema);
       ("tool", Json.String tool);
       ("workload", Json.String workload);
       ("git_rev", Json.String git_rev);
       ("build_id", Json.String build_id);
       ("meta", meta);
       ("wall_s", Json.Float wall_s);
       ( "spans",
         Json.Obj
           (List.map (fun (n, d) -> (n, Json.Float d)) (span_table manifest)) );
       ( "metrics",
         Option.value ~default:(Json.Obj []) (Json.member "metrics" manifest) );
     ]
    @ sections)

(* ---- the store ---- *)

(* Append one record as a single line.  The line is materialized first
   and written with one [output_string] on an O_APPEND channel, so
   concurrent appenders never interleave within a line. *)
let append path (record : Json.t) =
  let line = Json.to_string record ^ "\n" in
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
  in
  output_string oc line;
  close_out oc

(* Load every parseable record, in file order.  Blank lines are ignored;
   malformed lines (torn writes, truncation) become warnings. *)
let load path : Json.t list * warning list =
  if not (Sys.file_exists path) then ([], [])
  else begin
    let ic = open_in_bin path in
    let records = ref [] in
    let warnings = ref [] in
    let lineno = ref 0 in
    (try
       while true do
         let line = input_line ic in
         incr lineno;
         if String.trim line <> "" then
           match Json.of_string line with
           | j -> records := j :: !records
           | exception Json.Parse_error msg ->
               warnings := { w_line = !lineno; w_reason = msg } :: !warnings
       done
     with End_of_file -> ());
    close_in ic;
    (List.rev !records, List.rev !warnings)
  end

(* ---- record accessors (shared by `bstat` and the tests) ---- *)

let str field r =
  Option.value ~default:"" (Json.get_string (Json.member field r))

let tool_of r = str "tool" r
let workload_of r = str "workload" r
let git_rev_of r = str "git_rev" r
let build_id_of r = str "build_id" r

let wall_of r =
  Option.value ~default:0.0 (Json.get_float (Json.member "wall_s" r))

(* ---- the tools' telemetry tail ---- *)

(* What every tool does last: build the run manifest, save it to
   [trace_out], append its record (stamped with [workload], [build_id]
   and the detected git revision) to [history], and report each file
   written on [ppf].  Nothing is built when neither file is asked for. *)
let save_run ?(ppf = Fmt.stdout) ~tool ~argv ~sections ~workload ?build_id
    ?trace_out ?history (obs : Obs.t) =
  if trace_out <> None || history <> None then begin
    let manifest = Manifest.make ~tool ~argv ~sections obs in
    Option.iter
      (fun path ->
        Manifest.save path manifest;
        Fmt.pf ppf "wrote manifest %s@." path)
      trace_out;
    Option.iter
      (fun path ->
        append path
          (of_manifest ~workload ~git_rev:(detect_git_rev ()) ?build_id
             manifest);
        Fmt.pf ppf "appended run history %s@." path)
      history
  end
