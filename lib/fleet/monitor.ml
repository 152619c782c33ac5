(* Fleet health monitor: the fleet round and its longitudinal view.

   [observe] is the one fleet round that bmerge, the boltd service and
   the tests run: recover stale shards against the round's
   revision, merge their recovered form, score the collected shards
   ([Quality.assess]) and fold that same per-shard pass into a health
   tick — per-host coverage, shard age, stale-recovery rate and rollout
   state (which build-id each host runs).  Threshold violations become
   structured [Obs] events (`fleet.monitor.*`), every tick's summary is
   retained, and the whole state renders as an ASCII health table plus a
   `fleet_health` manifest section. *)

module Fdata = Bolt_profile.Fdata
module Json = Bolt_obs.Json
module Obs = Bolt_obs.Obs
module Stale_match = Bolt_profile.Stale_match

(* Alert thresholds. *)
let min_coverage_pct = 25.0 (* per-host coverage of merged functions *)
let min_recovery_rate = 0.5 (* per-host, when stale recovery ran *)
let max_age = 2 * 86_400 (* seconds a shard may lag the newest shard *)
let max_stale_pct = 50.0 (* fleet-level share of stale events *)

type host_state = {
  hs_host : string;
  hs_build_id : string;
  hs_stale : bool; (* build-id disagrees with the expected revision *)
  hs_age : int; (* seconds behind the newest shard of the tick *)
  hs_coverage_pct : float;
  hs_recovery_rate : float option; (* None when no recovery was needed *)
  hs_events : int64;
  hs_alerts : int; (* alerts raised against this host this tick *)
}

type alert = {
  al_tick : int;
  al_host : string; (* "" for fleet-level alerts *)
  al_kind : string; (* "stale_build" | "low_coverage" | ... *)
  al_detail : string;
}

type tick = {
  tk_index : int;
  tk_expected_build_id : string;
  tk_hosts : host_state list;
  tk_quality : Quality.report;
  tk_alerts : alert list;
}

(* Every tick, newest first.  Merged profiles are never kept: a daemon
   holds its monitor for its whole life. *)
type t = { mutable ticks : tick list }

let create () = { ticks = [] }
let ticks t = List.rev t.ticks
let alerts t = List.concat_map (fun tk -> tk.tk_alerts) (ticks t)
let stale_hosts (tk : tick) =
  List.filter_map (fun h -> if h.hs_stale then Some h.hs_host else None) tk.tk_hosts

(* One fleet round over [shards] as collected (pre-recovery, so
   provenance is the hosts' truth).  The round's revision is
   [Merge.target_build_id]: the one stamped on the merged profile, which
   quality and health both judge staleness against.  Shards stale
   against it are recovered through the target's [fingerprints] before
   the merge.  Emits `fleet.monitor.*` events and counters through [obs]
   and returns the merged profile with the recorded tick. *)
let observe ?obs t ~(opts : Merge.options)
    ~(fingerprints : Bolt_obj.Fingerprint.t) (shards : Merge.loaded list) :
    Fdata.t * tick =
  let obs = match obs with Some o -> o | None -> Obs.null () in
  let expected = Merge.target_build_id opts shards in
  let recovered, recovery =
    Merge.recover_stale_each ~fingerprints ~build_id:expected shards
  in
  let merged = Merge.merge ~obs ~opts recovered in
  let quality, scores =
    Quality.assess ~expected_build_id:expected
      ?recovery:(Stale_match.sum_stats (List.map snd recovery))
      shards ~merged
  in
  let index = List.length t.ticks in
  let newest = Merge.newest_timestamp shards in
  let alerts = ref [] in
  let alert ~host kind detail =
    alerts := { al_tick = index; al_host = host; al_kind = kind; al_detail = detail } :: !alerts;
    Obs.incr obs "fleet.monitor.alerts";
    Obs.event obs ("fleet.monitor." ^ kind)
      ~attrs:
        ([ ("tick", Json.Int index); ("detail", Json.String detail) ]
        @ if host = "" then [] else [ ("host", Json.String host) ])
  in
  let hosts =
    List.map2
      (fun sh (sc : Quality.shard_score) ->
        let header = Merge.header sh in
        let host = Merge.host_of sh in
        let build = header.Fdata.hd_build_id in
        let age =
          if header.Fdata.hd_timestamp = 0 then 0
          else newest - header.Fdata.hd_timestamp
        in
        let coverage = sc.Quality.ss_coverage_pct in
        let rate =
          Option.map Stale_match.recovery_rate (List.assoc_opt host recovery)
        in
        let n_alerts = ref 0 in
        let host_alert kind detail = incr n_alerts; alert ~host kind detail in
        if sc.Quality.ss_stale then
          host_alert "stale_build"
            (Printf.sprintf "running build %s, expected %s" build expected);
        if coverage < min_coverage_pct then
          host_alert "low_coverage"
            (Printf.sprintf "%.1f%% of merged functions (threshold %.1f%%)"
               coverage min_coverage_pct);
        (match rate with
        | Some r when r < min_recovery_rate ->
            host_alert "low_recovery"
              (Printf.sprintf "stale-profile recovery rate %.2f (threshold %.2f)"
                 r min_recovery_rate)
        | _ -> ());
        if age > max_age then
          host_alert "old_shard"
            (Printf.sprintf "shard is %ds behind the newest (threshold %ds)" age
               max_age);
        {
          hs_host = host;
          hs_build_id = build;
          hs_stale = sc.Quality.ss_stale;
          hs_age = age;
          hs_coverage_pct = coverage;
          hs_recovery_rate = rate;
          hs_events = sc.Quality.ss_events;
          hs_alerts = !n_alerts;
        })
      shards scores
  in
  if quality.Quality.q_staleness_pct > max_stale_pct then
    alert ~host:"" "fleet_stale"
      (Printf.sprintf "%.1f%% of events from stale shards (threshold %.1f%%)"
         quality.Quality.q_staleness_pct max_stale_pct);
  (* drift detection: recovery rate falling tick-over-tick is the signal
     the stale-matching paper says operators watch *)
  (match (t.ticks, quality.Quality.q_recovery) with
  | prev :: _, Some st -> (
      match prev.tk_quality.Quality.q_recovery with
      | Some prev_st ->
          let r = Stale_match.recovery_rate st
          and pr = Stale_match.recovery_rate prev_st in
          if r < pr -. 0.10 then
            alert ~host:"" "recovery_drift"
              (Printf.sprintf "fleet recovery rate fell %.2f -> %.2f" pr r)
      | None -> ())
  | _ -> ());
  Obs.incr obs "fleet.monitor.ticks";
  Obs.incr obs ~by:quality.Quality.q_stale_shards "fleet.monitor.stale_hosts";
  let tk =
    {
      tk_index = index;
      tk_expected_build_id = expected;
      tk_hosts = hosts;
      tk_quality = quality;
      tk_alerts = List.rev !alerts;
    }
  in
  t.ticks <- tk :: t.ticks;
  (merged, tk)

(* ---- rendering ---- *)

let short_id s = if String.length s > 10 then String.sub s 0 10 else s

(* Per-host one-char state at a tick: '.' healthy, 'S' stale revision,
   '!' some other alert fired. *)
let host_char (h : host_state) =
  if h.hs_stale then 'S' else if h.hs_alerts > 0 then '!' else '.'

let pp ppf (t : t) =
  match ticks t with
  | [] -> Fmt.pf ppf "fleet health: no ticks observed@."
  | all ->
      let latest = List.nth all (List.length all - 1) in
      Fmt.pf ppf "fleet health: %d tick(s), expected build %s, %d host(s)@."
        (List.length all)
        (match latest.tk_expected_build_id with "" -> "<none>" | id -> short_id id)
        (List.length latest.tk_hosts);
      Fmt.pf ppf "  %4s %6s %6s %7s %7s %7s@." "tick" "hosts" "stale" "cov%"
        "recov" "alerts";
      List.iter
        (fun tk ->
          Fmt.pf ppf "  %4d %6d %6d %7.1f %7s %7d@." tk.tk_index
            (List.length tk.tk_hosts)
            (List.length (stale_hosts tk))
            tk.tk_quality.Quality.q_coverage_pct
            (match tk.tk_quality.Quality.q_recovery with
            | Some st -> Printf.sprintf "%.2f" (Stale_match.recovery_rate st)
            | None -> "-")
            (List.length tk.tk_alerts))
        all;
      (* per-host rollout/health view over the ticks *)
      let width =
        List.fold_left
          (fun w h -> max w (String.length h.hs_host))
          12 latest.tk_hosts
      in
      Fmt.pf ppf "  %-*s %-10s %8s %6s %6s %-7s %s@." width "host" "build"
        "age(s)" "cov%" "recov" "state" "ticks";
      List.iter
        (fun (h : host_state) ->
          let history =
            String.init (List.length all) (fun i ->
                match
                  List.find_opt
                    (fun x -> x.hs_host = h.hs_host)
                    (List.nth all i).tk_hosts
                with
                | Some hx -> host_char hx
                | None -> ' ')
          in
          Fmt.pf ppf "  %-*s %-10s %8d %6.1f %6s %-7s %s@." width h.hs_host
            (match h.hs_build_id with "" -> "<none>" | id -> short_id id)
            h.hs_age h.hs_coverage_pct
            (match h.hs_recovery_rate with
            | Some r -> Printf.sprintf "%.2f" r
            | None -> "-")
            (if h.hs_stale then "STALE"
             else if h.hs_alerts > 0 then "ALERT"
             else "ok")
            history)
        latest.tk_hosts;
      let alerts = alerts t in
      if alerts <> [] then begin
        Fmt.pf ppf "  alerts:@.";
        List.iter
          (fun a ->
            Fmt.pf ppf "    [tick %d] %s%s: %s@." a.al_tick
              (if a.al_host = "" then "fleet" else a.al_host)
              (" " ^ a.al_kind) a.al_detail)
          alerts
      end

(* ---- manifest section ---- *)

let host_json (h : host_state) =
  Json.Obj
    [
      ("host", Json.String h.hs_host);
      ("build_id", Json.String h.hs_build_id);
      ("stale", Json.Bool h.hs_stale);
      ("age_s", Json.Int h.hs_age);
      ("coverage_pct", Json.Float h.hs_coverage_pct);
      ( "recovery_rate",
        match h.hs_recovery_rate with
        | Some r -> Json.Float r
        | None -> Json.Null );
      ("events", Json.Int (Fdata.clamp_int h.hs_events));
      ("alerts", Json.Int h.hs_alerts);
    ]

let manifest_section (t : t) : string * Json.t =
  let all = ticks t in
  let latest_hosts =
    match List.rev all with [] -> [] | tk :: _ -> tk.tk_hosts
  in
  ( "fleet_health",
    Json.Obj
      [
        ("ticks", Json.Int (List.length all));
        ( "expected_build_id",
          Json.String
            (match List.rev all with
            | [] -> ""
            | tk :: _ -> tk.tk_expected_build_id) );
        ( "series",
          Json.List
            (List.map
               (fun tk ->
                 Json.Obj
                   [
                     ("tick", Json.Int tk.tk_index);
                     ("hosts", Json.Int (List.length tk.tk_hosts));
                     ("stale_hosts", Json.Int (List.length (stale_hosts tk)));
                     ( "coverage_pct",
                       Json.Float tk.tk_quality.Quality.q_coverage_pct );
                     ( "staleness_pct",
                       Json.Float tk.tk_quality.Quality.q_staleness_pct );
                     ( "recovery_rate",
                       match tk.tk_quality.Quality.q_recovery with
                       | Some st -> Json.Float (Stale_match.recovery_rate st)
                       | None -> Json.Null );
                     ("alerts", Json.Int (List.length tk.tk_alerts));
                   ])
               all) );
        ("hosts", Json.List (List.map host_json latest_hosts));
        ( "alerts",
          Json.List
            (List.map
               (fun a ->
                 Json.Obj
                   [
                     ("tick", Json.Int a.al_tick);
                     ("host", Json.String a.al_host);
                     ("kind", Json.String a.al_kind);
                     ("detail", Json.String a.al_detail);
                   ])
               (alerts t)) );
      ] )
