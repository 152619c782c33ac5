(* Continuous-optimization service: the loop BOLT runs as in a data
   center (§7) — shards trickle in from thousands of hosts, per-host
   state accumulates under a memory bound, and when the merged profile's
   quality crosses the configured thresholds (or a max-staleness timer
   fires) the target binary is re-optimized and the rollout tracked.

   The loop is event-driven and entirely deterministic:

   - time is logical: every event carries its arrival second and the
     service clock only ever advances to the max event time seen — no
     wall-clock read happens inside [step], so a scripted tape replays
     byte-identically (and the CLI can pin the [Obs] clock with
     --epoch for reproducible manifests);
   - each step's events are sorted into a canonical order before
     ingest, so the arrival order *within* a step cannot matter, and
     the sketch, merge and rewrite layers are themselves
     order/[jobs]-independent — the e2e suite holds final binary,
     profile and state bytes equal across shuffled tapes and -j;
   - the sketch ([Sketch]) bounds memory: top-K functions per host
     under a global byte budget, evictions counted and their event
     mass tracked.

   Assessment is the fleet round, [Monitor.observe], over the retained
   per-host profiles: stale shards are re-keyed against the current
   target (recovery is always armed when the target carries
   fingerprints), merged, scored and recorded as a health tick, and a
   trigger decision is taken on the tick's quality report. *)

module Fdata = Bolt_profile.Fdata
module Json = Bolt_obs.Json
module Obs = Bolt_obs.Obs
module Merge = Bolt_fleet.Merge
module Monitor = Bolt_fleet.Monitor
module Quality = Bolt_fleet.Quality
module Stale_match = Bolt_profile.Stale_match
module P = Bolt_pipeline.Pipeline

(* ---- events ---- *)

(* One shard arrival: at [ev_time] (seconds on the fleet's logical
   clock), [ev_host] delivered the fdata text [ev_text]. *)
type event = { ev_time : int; ev_host : string; ev_text : string }

(* Canonical event order: time, then host, then content — ingest order
   inside a step is a function of the events, never of the tape. *)
let compare_event a b =
  compare (a.ev_time, a.ev_host, a.ev_text) (b.ev_time, b.ev_host, b.ev_text)

(* ---- configuration ---- *)

type trigger = {
  tr_min_hosts : int; (* no trigger before this many hosts reported *)
  tr_min_coverage_pct : float; (* quality gates for a re-optimization: *)
  tr_max_staleness_pct : float; (*   the merged profile must be this good *)
  tr_min_recovery_rate : float; (*   before it is worth rewriting on *)
  tr_max_interval : int; (* max-staleness timer: re-optimize at least this
                            often (seconds) while traffic arrives; 0 = off *)
  tr_cooldown_hosts : int; (* fresh host reports required between triggers *)
}

let default_trigger =
  {
    tr_min_hosts = 4;
    tr_min_coverage_pct = 25.0;
    tr_max_staleness_pct = 60.0;
    tr_min_recovery_rate = 0.3;
    tr_max_interval = 0;
    tr_cooldown_hosts = 1;
  }

type config = {
  c_topk : int; (* sketch: max function entries per host *)
  c_budget : int; (* sketch: global byte budget *)
  c_trigger : trigger;
  c_jobs : int; (* worker domains for the rewrite *)
  c_decay : float option; (* age decay for the merge *)
}

let default_config =
  {
    c_topk = 512;
    c_budget = 64 * 1024 * 1024;
    c_trigger = default_trigger;
    c_jobs = 1;
    c_decay = None;
  }

(* ---- state ---- *)

(* One fired trigger, newest first in [reopts]. *)
type reopt = {
  ro_step : int;
  ro_time : int;
  ro_reason : string; (* "quality" | "max_interval" *)
  ro_build_id_before : string;
  ro_build_id_after : string; (* = before when no target binary is loaded *)
  ro_profile : Fdata.t; (* the merged profile the rewrite consumed *)
}

type t = {
  cfg : config;
  obs : Obs.t;
  sketch : Sketch.t;
  monitor : Monitor.t;
  mutable target : P.build option; (* None: track/trigger without rewriting *)
  mutable expected_build_id : string;
  mutable fingerprints : Bolt_obj.Fingerprint.t;
  mutable now : int; (* logical clock: max event time seen *)
  mutable steps : int;
  mutable events_seen : int;
  mutable lines_in : int;
  mutable last_reopt : int; (* timer base: start_time until first trigger *)
  mutable fresh_hosts : int; (* shard arrivals since the last trigger *)
  mutable first_trigger_step : int option; (* trigger latency in ticks *)
  mutable reopts : reopt list;
  mutable last_quality : Quality.report option;
  mutable last_merged : Fdata.t option;
}

let create ?obs ?(config = default_config) ?target ?expect_build_id
    ~start_time () =
  let obs = match obs with Some o -> o | None -> Obs.null () in
  let expected, fps =
    match target with
    | Some b -> (P.build_id b, P.fingerprints b)
    | None -> (Option.value ~default:"" expect_build_id, [])
  in
  {
    cfg = config;
    obs;
    sketch = Sketch.create ~obs ~topk:config.c_topk ~budget:config.c_budget ();
    monitor = Monitor.create ();
    target;
    expected_build_id = expected;
    fingerprints = fps;
    now = start_time;
    steps = 0;
    events_seen = 0;
    lines_in = 0;
    last_reopt = start_time;
    fresh_hosts = 0;
    first_trigger_step = None;
    reopts = [];
    last_quality = None;
    last_merged = None;
  }

let target t = t.target
let expected_build_id t = t.expected_build_id
let reopts t = List.rev t.reopts
let monitor t = t.monitor
let sketch t = t.sketch
let last_merged t = t.last_merged
let first_trigger_step t = t.first_trigger_step

let count_lines text =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) text;
  !n

(* A torn shard is counted as an arrival but not as a fresh host
   report: it changed nothing the trigger cooldown waits for. *)
let ingest t (ev : event) =
  let ig = Sketch.ingest t.sketch ~host:ev.ev_host ev.ev_text in
  t.events_seen <- t.events_seen + 1;
  t.lines_in <- t.lines_in + ig.Sketch.ig_lines;
  if not ig.Sketch.ig_skipped then t.fresh_hosts <- t.fresh_hosts + 1;
  if ev.ev_time > t.now then t.now <- ev.ev_time;
  Obs.incr t.obs "service.shards";
  Obs.incr t.obs ~by:ig.Sketch.ig_records "service.records";
  if ig.Sketch.ig_warnings > 0 then
    Obs.incr t.obs ~by:ig.Sketch.ig_warnings "service.malformed_lines"

(* ---- the step: ingest a batch, assess, maybe re-optimize ---- *)

type step_report = {
  sr_step : int;
  sr_time : int;
  sr_events : int;
  sr_hosts : int; (* hosts tracked after this step *)
  sr_quality : Quality.report option;
  sr_trigger : string option; (* reason, when this step triggered *)
  sr_reoptimized : bool; (* a target was actually rewritten *)
}

let assess t : Quality.report option =
  let shards = Sketch.to_shards t.sketch in
  if shards = [] then None
  else begin
    let opts =
      {
        Merge.weights = [];
        decay = t.cfg.c_decay;
        expect_build_id =
          (if t.expected_build_id = "" then None else Some t.expected_build_id);
      }
    in
    let merged, tick =
      Monitor.observe ~obs:t.obs t.monitor ~opts ~fingerprints:t.fingerprints
        shards
    in
    t.last_merged <- Some merged;
    t.last_quality <- Some tick.Monitor.tk_quality;
    t.last_quality
  end

let trigger_reason t (q : Quality.report) : string option =
  let tr = t.cfg.c_trigger in
  let hosts = Sketch.hosts t.sketch in
  let recovery_ok =
    match q.Quality.q_recovery with
    | None -> true
    | Some st -> Stale_match.recovery_rate st >= tr.tr_min_recovery_rate
  in
  let quality_ok =
    hosts >= tr.tr_min_hosts
    && q.Quality.q_coverage_pct >= tr.tr_min_coverage_pct
    && q.Quality.q_staleness_pct <= tr.tr_max_staleness_pct
    && recovery_ok
  in
  if quality_ok && t.fresh_hosts >= tr.tr_cooldown_hosts then Some "quality"
  else if
    tr.tr_max_interval > 0
    && t.now - t.last_reopt >= tr.tr_max_interval
    && t.fresh_hosts > 0
  then Some "max_interval"
  else None

let reoptimize t ~reason =
  if t.first_trigger_step = None then t.first_trigger_step <- Some t.steps;
  Obs.incr t.obs "service.triggers";
  Obs.event t.obs "service.trigger"
    ~attrs:
      [
        ("reason", Json.String reason);
        ("step", Json.Int t.steps);
        ("time", Json.Int t.now);
      ];
  let before = t.expected_build_id in
  let merged =
    match t.last_merged with Some m -> m | None -> assert false
  in
  (match t.target with
  | None -> () (* tracking-only mode: record the trigger, rewrite nothing *)
  | Some b ->
      let b', _report = P.bolt ~obs:t.obs ~jobs:t.cfg.c_jobs b merged in
      t.target <- Some b';
      t.expected_build_id <- P.build_id b';
      t.fingerprints <- P.fingerprints b';
      Obs.incr t.obs "service.reopts";
      Obs.event t.obs "service.reoptimize"
        ~attrs:
          [
            ("build_id_before", Json.String before);
            ("build_id_after", Json.String t.expected_build_id);
          ]);
  t.last_reopt <- t.now;
  t.fresh_hosts <- 0;
  t.reopts <-
    {
      ro_step = t.steps;
      ro_time = t.now;
      ro_reason = reason;
      ro_build_id_before = before;
      ro_build_id_after = t.expected_build_id;
      ro_profile = merged;
    }
    :: t.reopts

(* One service tick: ingest [events] (any order — they are canonicalized
   here), advance the logical clock, reassess quality, and fire the
   trigger policy. *)
let step ?now t (events : event list) : step_report =
  Obs.span t.obs "service.step" (fun () ->
      let events = List.sort compare_event events in
      List.iter (ingest t) events;
      (match now with Some n when n > t.now -> t.now <- n | _ -> ());
      t.steps <- t.steps + 1;
      let q = assess t in
      let trigger =
        match q with None -> None | Some q -> trigger_reason t q
      in
      let reoptimized =
        match trigger with
        | Some reason ->
            reoptimize t ~reason;
            t.target <> None
        | None -> false
      in
      Obs.incr t.obs "service.steps";
      {
        sr_step = t.steps;
        sr_time = t.now;
        sr_events = List.length events;
        sr_hosts = Sketch.hosts t.sketch;
        sr_quality = q;
        sr_trigger = trigger;
        sr_reoptimized = reoptimized;
      })

(* Replay a whole tape: events sharing an arrival time form one step
   (the scripted analog of a spool poll interval). *)
let run t (tape : event list) : step_report list =
  let sorted = List.sort compare_event tape in
  let groups =
    List.fold_left
      (fun acc ev ->
        match acc with
        | (time, evs) :: rest when time = ev.ev_time ->
            (time, ev :: evs) :: rest
        | _ -> (ev.ev_time, [ ev ]) :: acc)
      [] sorted
  in
  (* [groups] is newest-first: restore tape order before stepping, so
     the logical clock advances monotonically through the replay *)
  List.map (fun (_, evs) -> step t (List.rev evs)) (List.rev groups)

(* ---- tape and spool I/O ---- *)

type skip = { sk_path : string; sk_reason : string }

let pp_skip ppf s = Fmt.pf ppf "skipped %s: %s" s.sk_path s.sk_reason

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  text

(* A scripted tape: one "<time> <host> <path>" triple per line,
   '#' comments and blank lines ignored.  Unreadable shard files are
   skipped with a reason, mirroring [Merge.load_shards]. *)
let load_tape path : event list * skip list =
  let skips = ref [] in
  let events = ref [] in
  let text = read_file path in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ time; host; shard ] -> (
            match int_of_string_opt time with
            | None ->
                skips :=
                  {
                    sk_path = Printf.sprintf "%s:%d" path (lineno + 1);
                    sk_reason = Printf.sprintf "bad arrival time %S" time;
                  }
                  :: !skips
            | Some time -> (
                match read_file shard with
                | text ->
                    events :=
                      { ev_time = time; ev_host = host; ev_text = text }
                      :: !events
                | exception Sys_error msg ->
                    skips := { sk_path = shard; sk_reason = msg } :: !skips))
        | _ ->
            skips :=
              {
                sk_path = Printf.sprintf "%s:%d" path (lineno + 1);
                sk_reason = "want: <time> <host> <shard-path>";
              }
              :: !skips)
    (String.split_on_char '\n' text);
  (List.rev !events, List.rev !skips)

(* One spool-directory poll: every regular file is an arriving shard;
   the host is the shard header's claim (file name fallback) and the
   arrival time the header timestamp (else [default_time]).  Consuming
   — moving or deleting the files — is the caller's business. *)
let spool_scan ?(default_time = 0) dir : (string * event) list * skip list =
  let skips = ref [] in
  let entries =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then None
           else
             match read_file path with
             | text ->
                 let prof, _ = Fdata.scan text in
                 let hd =
                   Option.value ~default:Fdata.no_header prof.Fdata.header
                 in
                 let host =
                   if hd.Fdata.hd_host <> "" then hd.Fdata.hd_host else name
                 in
                 let time =
                   if hd.Fdata.hd_timestamp > 0 then hd.Fdata.hd_timestamp
                   else default_time
                 in
                 Some (path, { ev_time = time; ev_host = host; ev_text = text })
             | exception Sys_error msg ->
                 skips := { sk_path = path; sk_reason = msg } :: !skips;
                 None)
  in
  (entries, List.rev !skips)

(* ---- rendering and manifests ---- *)

let short_id s = if String.length s > 10 then String.sub s 0 10 else s

let manifest_section (t : t) : string * Json.t =
  ( "service",
    Json.Obj
      [
        ("steps", Json.Int t.steps);
        ("events", Json.Int t.events_seen);
        ("lines", Json.Int t.lines_in);
        ("hosts", Json.Int (Sketch.hosts t.sketch));
        ("now", Json.Int t.now);
        ("expected_build_id", Json.String t.expected_build_id);
        ( "sketch",
          Json.Obj
            [
              ("budget_bytes", Json.Int (Sketch.budget t.sketch));
              ("occupancy_bytes", Json.Int (Sketch.occupancy t.sketch));
              ("peak_bytes", Json.Int (Sketch.peak t.sketch));
              ("funcs", Json.Int (Sketch.funcs t.sketch));
              ( "within_budget",
                Json.Bool (Sketch.peak t.sketch <= Sketch.budget t.sketch) );
              ( "evicted_events",
                Json.Int (Fdata.clamp_int (Sketch.evicted_events t.sketch)) );
              ("malformed_lines", Json.Int (Sketch.malformed t.sketch));
            ] );
        (* flat, so the bstat default budget rule service.sketch_evictions
           sees it without a glob *)
        ("sketch_evictions", Json.Int (Sketch.evictions t.sketch));
        ( "trigger_latency_ticks",
          match t.first_trigger_step with
          | Some s -> Json.Int s
          | None -> Json.Null );
        ( "reopts",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("step", Json.Int r.ro_step);
                     ("time", Json.Int r.ro_time);
                     ("reason", Json.String r.ro_reason);
                     ("build_id_before", Json.String r.ro_build_id_before);
                     ("build_id_after", Json.String r.ro_build_id_after);
                   ])
               (reopts t)) );
        ( "quality",
          match t.last_quality with
          | None -> Json.Null
          | Some q -> snd (Quality.manifest_section q) );
      ] )

(* ASCII status from a saved manifest — what `boltd --status` renders,
   so an operator can inspect a daemon's last written state without the
   daemon.  [pp] renders the live service through the same lines. *)
let pp_status_json ppf (m : Json.t) =
  match Json.member "service" m with
  | None -> Fmt.pf ppf "no service section in this manifest@."
  | Some s ->
      let int j k = Option.value ~default:0 (Json.get_int (Json.member k j)) in
      let str j k =
        Option.value ~default:"" (Json.get_string (Json.member k j))
      in
      let id j k = match str j k with "" -> "<none>" | id -> short_id id in
      Fmt.pf ppf "service status: %d step(s), %d host(s), t=%d@." (int s "steps")
        (int s "hosts") (int s "now");
      Fmt.pf ppf "  target build   %s@." (id s "expected_build_id");
      (match Json.member "sketch" s with
      | Some sk ->
          Fmt.pf ppf "  ingest         %d shard(s), %d line(s), %d malformed@."
            (int s "events") (int s "lines") (int sk "malformed_lines");
          Fmt.pf ppf "  sketch         %d / %d bytes (peak %d), %d func(s), %d eviction(s)@."
            (int sk "occupancy_bytes") (int sk "budget_bytes")
            (int sk "peak_bytes") (int sk "funcs") (int s "sketch_evictions")
      | None -> ());
      (match Json.member "quality" s with
      | Some (Json.Obj _ as q) ->
          let qf k = Option.value ~default:0.0 (Json.get_float (Json.member k q)) in
          Fmt.pf ppf "  quality        coverage %.1f%%  staleness %.1f%%  recovery %s@."
            (qf "coverage_pct") (qf "staleness_pct")
            (match Option.bind (Json.member "recovery" q) (Json.member "rate") with
            | Some (Json.Float r) -> Printf.sprintf "%.2f" r
            | _ -> "-")
      | _ -> ());
      (match Json.get_list (Json.member "reopts" s) with
      | Some (_ :: _ as rs) ->
          List.iter
            (fun r ->
              Fmt.pf ppf "  trigger        %s@step %d (t=%d): %s -> %s@."
                (str r "reason") (int r "step") (int r "time")
                (id r "build_id_before") (id r "build_id_after"))
            rs
      | _ -> Fmt.pf ppf "  triggers       none@.");
      (match Json.member "fleet_health" m with
      | Some fh -> (
          match (Json.member "ticks" fh, Json.member "hosts" fh) with
          | Some (Json.Int ticks), Some (Json.List hosts) ->
              let stale =
                List.length
                  (List.filter
                     (fun h -> Json.member "stale" h = Some (Json.Bool true))
                     hosts)
              in
              Fmt.pf ppf "  fleet health   %d tick(s), %d host(s), %d stale@."
                ticks (List.length hosts) stale
          | _ -> ())
      | None -> ())

(* boltd's exit block: the status lines of the live service, then the
   fleet health table. *)
let pp ppf (t : t) =
  pp_status_json ppf (Json.Obj [ manifest_section t ]);
  Monitor.pp ppf t.monitor
