(* Merge quality report: how trustworthy is the aggregated fleet profile?

   Three axes, mirroring what a deployment pipeline gates on:

   - coverage: how much of the merged profile's function set each shard
     saw (low coverage = hosts sampled disjoint slices of the binary, the
     merge is gluing together sparse views);
   - agreement/divergence: the fraction of merged branch records observed
     by more than one shard (high divergence = per-host behaviour skew,
     or clock/revision drift);
   - staleness: the fraction of shards — and of raw events — collected
     against a binary revision other than the target build-id (§6/§7:
     merged fleet profiles rarely match the binary exactly). *)

module Fdata = Bolt_profile.Fdata
module Json = Bolt_obs.Json
module Obs = Bolt_obs.Obs

type report = {
  q_shards : int;
  q_hosts : string list;
  q_events : int64; (* saturating total of per-shard event counts *)
  q_functions : int; (* functions in the merged profile *)
  q_coverage_pct : float; (* mean per-shard coverage of merged functions *)
  q_agreement_pct : float; (* merged branch keys seen by >= 2 shards *)
  q_divergence_pct : float; (* merged branch keys seen by exactly 1 shard *)
  q_expected_build_id : string; (* target revision ("" = none known) *)
  q_build_ids : (string * int) list; (* build-id -> shard count, sorted *)
  q_stale_shards : int; (* shards on a revision other than the target *)
  q_unstamped_shards : int; (* shards with no build-id at all *)
  q_staleness_pct : float; (* share of events from stale shards *)
  q_recovery : Bolt_profile.Stale_match.stats option;
      (* aggregate stale-shard recovery breakdown (functions matched
         exact/fuzzy/inferred/dropped); None when no shard was recovered *)
}

let pct num den = if den <= 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

(* One shard's score, from the same pass that builds the report; the
   health monitor builds its host rows from these. *)
type shard_score = {
  ss_coverage_pct : float; (* share of the merged function set it saw *)
  ss_events : int64; (* [Merge.shard_events] *)
  ss_stale : bool; (* stamped with a revision other than the expected one *)
}

(* Score [shards] (as collected, before stale recovery) against the
   [merged] profile and the [expected_build_id] revision ("" = none
   known: nothing is stale).  Returns the report and, in shard order,
   each shard's score. *)
let assess ~expected_build_id ?recovery (shards : Merge.loaded list)
    ~(merged : Fdata.t) : report * shard_score list =
  let merged_funcs = Fdata.func_events merged in
  let nfuncs = Hashtbl.length merged_funcs in
  (* agreement: how many shards saw each merged branch key.  The merged
     branches are in canonical order, so each shard's keys, sorted with
     the same comparator, are found by one forward walk of binary
     searches. *)
  let merged_branches = Array.of_list merged.Fdata.branches in
  let keys = Array.length merged_branches in
  let observers = Array.make keys 0 in
  let observe (prof : Fdata.t) =
    let mine = Array.of_list prof.Fdata.branches in
    Array.sort Fdata.compare_branch mine;
    let lo = ref 0 in
    Array.iteri
      (fun i b ->
        if i = 0 || Fdata.compare_branch mine.(i - 1) b <> 0 then begin
          (* the first merged key not below [b], at or after [lo] *)
          let l = ref !lo and h = ref keys in
          while !l < !h do
            let m = (!l + !h) / 2 in
            if Fdata.compare_branch merged_branches.(m) b < 0 then l := m + 1
            else h := m
          done;
          if !l < keys && Fdata.compare_branch merged_branches.(!l) b = 0 then begin
            observers.(!l) <- observers.(!l) + 1;
            lo := !l + 1
          end
          else lo := !l
        end)
      mine
  in
  let build_tally = Hashtbl.create 8 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + try Hashtbl.find tbl k with Not_found -> 0)
  in
  let scores =
    List.map
      (fun sh ->
        let prof = sh.Merge.sh_prof in
        (* coverage: the fraction of the merged function set it touched *)
        let hit =
          Hashtbl.fold
            (fun f _ acc -> if Hashtbl.mem merged_funcs f then acc + 1 else acc)
            (Fdata.func_events prof) 0
        in
        observe prof;
        (* staleness: the shard's revision against the expected one *)
        let id = (Merge.header sh).Fdata.hd_build_id in
        bump build_tally (if id = "" then "<unstamped>" else id);
        {
          ss_coverage_pct = pct hit nfuncs;
          ss_events = Merge.shard_events sh;
          ss_stale = expected_build_id <> "" && id <> "" && id <> expected_build_id;
        })
      shards
  in
  let coverage_pct =
    match scores with
    | [] -> 0.0
    | _ ->
        List.fold_left (fun a s -> a +. s.ss_coverage_pct) 0.0 scores
        /. float_of_int (List.length scores)
  in
  let shared =
    Array.fold_left (fun acc n -> if n >= 2 then acc + 1 else acc) 0 observers
  in
  let agreement_pct = pct shared keys in
  let sum_events keep =
    List.fold_left
      (fun a s -> if keep s then Fdata.sat_add a s.ss_events else a)
      0L scores
  in
  let total_events = sum_events (fun _ -> true) in
  let stale_events = sum_events (fun s -> s.ss_stale) in
  let staleness_pct =
    if total_events = 0L then 0.0
    else 100.0 *. Int64.to_float stale_events /. Int64.to_float total_events
  in
  ( {
      q_shards = List.length shards;
      q_hosts = List.map Merge.host_of shards |> List.sort_uniq compare;
      q_events = total_events;
      q_functions = nfuncs;
      q_coverage_pct = coverage_pct;
      q_agreement_pct = agreement_pct;
      q_divergence_pct = (if keys = 0 then 0.0 else 100.0 -. agreement_pct);
      q_expected_build_id = expected_build_id;
      q_build_ids =
        Hashtbl.fold (fun id n acc -> (id, n) :: acc) build_tally []
        |> List.sort compare;
      q_stale_shards = List.length (List.filter (fun s -> s.ss_stale) scores);
      q_unstamped_shards =
        (try Hashtbl.find build_tally "<unstamped>" with Not_found -> 0);
      q_staleness_pct = staleness_pct;
      q_recovery = recovery;
    },
    scores )

(* Publish the report through the metrics registry, so it lands in the
   run manifest's "metrics" object alongside everything else. *)
let to_obs (obs : Obs.t) (r : report) =
  Obs.incr obs ~by:r.q_shards "fleet.quality.shards";
  Obs.incr obs ~by:r.q_stale_shards "fleet.quality.stale_shards";
  Obs.incr obs ~by:r.q_unstamped_shards "fleet.quality.unstamped_shards";
  Obs.incr obs ~by:r.q_functions "fleet.quality.functions";
  Obs.set obs "fleet.quality.coverage_pct" r.q_coverage_pct;
  Obs.set obs "fleet.quality.agreement_pct" r.q_agreement_pct;
  Obs.set obs "fleet.quality.divergence_pct" r.q_divergence_pct;
  Obs.set obs "fleet.quality.staleness_pct" r.q_staleness_pct;
  match r.q_recovery with
  | None -> ()
  | Some st ->
      Obs.incr obs ~by:st.Bolt_profile.Stale_match.st_exact
        "fleet.quality.recovery.exact";
      Obs.incr obs ~by:st.Bolt_profile.Stale_match.st_fuzzy
        "fleet.quality.recovery.fuzzy";
      Obs.incr obs ~by:st.Bolt_profile.Stale_match.st_inferred
        "fleet.quality.recovery.inferred";
      Obs.incr obs ~by:st.Bolt_profile.Stale_match.st_dropped
        "fleet.quality.recovery.dropped";
      Obs.set obs "fleet.quality.recovery.rate"
        (Bolt_profile.Stale_match.recovery_rate st)

(* A structured manifest section ("fleet") for bmerge --trace-out. *)
let manifest_section (r : report) : string * Json.t =
  ( "fleet",
    Json.Obj
      [
        ("shards", Json.Int r.q_shards);
        ("hosts", Json.List (List.map (fun h -> Json.String h) r.q_hosts));
        ("events", Json.Int (Fdata.clamp_int r.q_events));
        ("functions", Json.Int r.q_functions);
        ("coverage_pct", Json.Float r.q_coverage_pct);
        ("agreement_pct", Json.Float r.q_agreement_pct);
        ("divergence_pct", Json.Float r.q_divergence_pct);
        ("expected_build_id", Json.String r.q_expected_build_id);
        ( "build_ids",
          Json.Obj (List.map (fun (id, n) -> (id, Json.Int n)) r.q_build_ids) );
        ("stale_shards", Json.Int r.q_stale_shards);
        ("unstamped_shards", Json.Int r.q_unstamped_shards);
        ("staleness_pct", Json.Float r.q_staleness_pct);
        ("recovery", Bolt_core.Bolt.recovery_json r.q_recovery);
      ] )

let pp ppf (r : report) =
  Fmt.pf ppf "fleet merge quality:@.";
  Fmt.pf ppf "  shards          %d (%d hosts)@." r.q_shards (List.length r.q_hosts);
  Fmt.pf ppf "  events          %Ld@." r.q_events;
  Fmt.pf ppf "  functions       %d@." r.q_functions;
  Fmt.pf ppf "  coverage        %.1f%% (mean shard coverage of merged functions)@."
    r.q_coverage_pct;
  Fmt.pf ppf "  agreement       %.1f%% of branch records seen by >1 shard@."
    r.q_agreement_pct;
  Fmt.pf ppf "  divergence      %.1f%%@." r.q_divergence_pct;
  Fmt.pf ppf "  target build    %s@."
    (if r.q_expected_build_id = "" then "<none>" else r.q_expected_build_id);
  List.iter
    (fun (id, n) -> Fmt.pf ppf "    %-34s %d shard%s@." id n (if n = 1 then "" else "s"))
    r.q_build_ids;
  Fmt.pf ppf "  stale shards    %d (%.1f%% of events)@." r.q_stale_shards
    r.q_staleness_pct;
  if r.q_unstamped_shards > 0 then
    Fmt.pf ppf "  unstamped       %d@." r.q_unstamped_shards;
  match r.q_recovery with
  | None -> ()
  | Some st ->
      Fmt.pf ppf "  stale recovery  %a (rate %.0f%%)@."
        Bolt_profile.Stale_match.pp_stats st
        (100.0 *. Bolt_profile.Stale_match.recovery_rate st)
