(* Fleet profile merger — the merge-fdata analog (§7: BOLT in the data
   center consumes samples aggregated across thousands of hosts, not one
   run's profile).

   Semantics: each shard's counts are scaled once by

     scale = header weight x CLI weight override x decay

   with decay = exp(-lambda * age), age measured back from the newest
   shard timestamp; then all scaled records are summed with saturating
   64-bit addition and the result is emitted in canonical order
   ([Fdata.accumulate], the same fold [Fdata.normalize] runs).

   Determinism: scaling is per-shard (no cross-shard state beyond the
   newest timestamp, itself a max — order-independent), saturating add of
   non-negative counts is commutative and associative, and the output is
   sorted — so the merged bytes are identical for any shard ordering.

   Two feeders share that one fold: [merge] replays shards already
   parsed into record lists, [merge_stream] lexes shard text straight
   into the accumulator without materializing per-shard lists. *)

module Fdata = Bolt_profile.Fdata
module Obs = Bolt_obs.Obs

type loaded = { sh_name : string; sh_prof : Fdata.t }

type options = {
  weights : (string * float) list; (* host -> weight override (multiplies) *)
  decay : float option; (* lambda, per timestamp unit *)
  expect_build_id : string option; (* target revision for staleness checks *)
}

let default_options = { weights = []; decay = None; expect_build_id = None }

let shard_of_profile ~name prof = { sh_name = name; sh_prof = prof }

let load_shard path =
  { sh_name = Filename.basename path; sh_prof = Fdata.load path }

(* One shard the loader refused: which file, and why. *)
type skip = { sk_path : string; sk_reason : string }

let pp_skip ppf s = Fmt.pf ppf "skipped shard %s: %s" s.sk_path s.sk_reason

(* The skip rule for a lexed shard: lexing salvaged nothing at all.
   Warnings with zero surviving records means the text is not an fdata
   profile, not a profile with a few bad lines.  The service sketch
   applies the same rule before a shard supersedes a host's state. *)
let torn ~records ~warnings = warnings <> [] && records = 0

(* The one shard loader both feeders go through, skipping the unusable
   shards instead of aborting the whole merge (a fleet aggregation must
   survive one torn file).  A shard is skipped when the file is
   unreadable, or when it is [torn].  [read] lexes one shard's text into
   what its feeder consumes, plus the record count and warnings the rule
   reads.

   [~strict:true] restores fail-fast: the first unreadable file raises
   [Sys_error], the first malformed record raises [Fdata.Bad_format]. *)
let load ~strict ~read paths =
  let skips = ref [] in
  let kept =
    List.filter_map
      (fun path ->
        match In_channel.with_open_text path In_channel.input_all with
        | exception Sys_error msg ->
            if strict then raise (Sys_error msg);
            skips := { sk_path = path; sk_reason = msg } :: !skips;
            None
        | text ->
            let shard, records, warnings =
              read ~name:(Filename.basename path) text
            in
            if torn ~records ~warnings then begin
              skips :=
                {
                  sk_path = path;
                  sk_reason =
                    Fmt.str "no usable records (%d malformed line%s, first: %a)"
                      (List.length warnings)
                      (if List.length warnings = 1 then "" else "s")
                      Fdata.pp_warning (List.hd warnings);
                }
                :: !skips;
              None
            end
            else Some shard)
      paths
  in
  (kept, List.rev !skips)

(* Shards parsed into record lists, for the fleet round
   ([Monitor.observe]: stale recovery, [merge], quality and health). *)
let load_shards ?(strict = false) paths : loaded list * skip list =
  load ~strict paths ~read:(fun ~name text ->
      let prof, warnings = Fdata.parse ~strict text in
      ( { sh_name = name; sh_prof = prof },
        List.length prof.Fdata.branches
        + List.length prof.Fdata.ranges
        + List.length prof.Fdata.samples,
        warnings ))

(* Shards as (name, text), for [merge_stream]: vetted by one counting
   scan, never parsed into record lists. *)
let load_texts ?(strict = false) paths : (string * string) list * skip list =
  load ~strict paths ~read:(fun ~name text ->
      let records = ref 0 in
      let count _ = incr records in
      let _, warnings =
        Fdata.scan ~strict ~branch:count ~range:count ~sample:count text
      in
      ((name, text), !records, warnings))

let header sh = Option.value ~default:Fdata.no_header sh.sh_prof.Fdata.header

(* Host label used for --weight matching: the header's host when present,
   the shard (file) name otherwise. *)
let host_of sh =
  let h = header sh in
  if h.Fdata.hd_host <> "" then h.Fdata.hd_host else sh.sh_name

let newest_timestamp shards =
  List.fold_left (fun a sh -> max a (header sh).Fdata.hd_timestamp) 0 shards

(* The most common non-empty shard build-id; ties break to the
   lexicographically smallest so the choice never depends on input
   order.  "" when no shard is stamped. *)
let modal_build_id shards =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun sh ->
      let id = (header sh).Fdata.hd_build_id in
      if id <> "" then
        Hashtbl.replace tally id (1 + try Hashtbl.find tally id with Not_found -> 0))
    shards;
  Hashtbl.fold
    (fun id n best ->
      match best with
      | Some (bid, bn) when bn > n || (bn = n && bid <= id) -> best
      | _ -> Some (id, n))
    tally None
  |> function
  | Some (id, _) -> id
  | None -> ""

let scale_of opts ~newest sh =
  let h = header sh in
  let override =
    match List.assoc_opt (host_of sh) opts.weights with Some w -> w | None -> 1.0
  in
  let decay =
    match opts.decay with
    | Some lambda when h.Fdata.hd_timestamp > 0 ->
        exp (-.lambda *. float_of_int (newest - h.Fdata.hd_timestamp))
    | _ -> 1.0
  in
  h.Fdata.hd_weight *. override *. decay

(* One shard's record feed, every count scaled by [f] on its way into
   the accumulator.  Scaling is per record, before the sum:
   [sat_scale (a + b) f] is not [sat_add (sat_scale a f) (sat_scale b f)]. *)
let scaled f feed ~branch ~range ~sample =
  if f = 1.0 then feed ~branch ~range ~sample
  else
    feed
      ~branch:(fun (b : Fdata.branch) ->
        branch
          {
            b with
            Fdata.br_count = Fdata.sat_scale b.br_count f;
            br_mispreds = Fdata.sat_scale b.br_mispreds f;
          })
      ~range:(fun (r : Fdata.range) ->
        range { r with Fdata.rg_count = Fdata.sat_scale r.rg_count f })
      ~sample:(fun (s : Fdata.sample) ->
        sample { s with Fdata.sm_count = Fdata.sat_scale s.sm_count f })

(* The revision a merge describes, and the one staleness is judged
   against: the target when one is given, else the modal shard build-id. *)
let target_build_id opts shards =
  match opts.expect_build_id with
  | Some id -> id
  | None -> modal_build_id shards

(* Events one shard stands for: its stamped header count, else the
   samples its records carry. *)
let shard_events sh =
  let h = header sh in
  if h.Fdata.hd_events > 0L then h.Fdata.hd_events
  else sh.sh_prof.Fdata.total_samples

(* Provenance of the merged profile: a synthetic "fleet" host stamped
   with [target_build_id], the newest shard timestamp and the saturating
   event total. *)
let merged_header opts shards =
  {
    Fdata.hd_host = "fleet";
    hd_build_id = target_build_id opts shards;
    hd_timestamp = newest_timestamp shards;
    hd_events =
      List.fold_left (fun a sh -> Fdata.sat_add a (shard_events sh)) 0L shards;
    hd_weight = 1.0;
  }

(* Recover stale shards against the target revision before merging:
   every shard whose build-id disagrees with [build_id] and that carries
   its own fingerprints is re-keyed through [Stale_match], so its events
   survive the merge instead of polluting it with dead names/offsets.
   Returns the (possibly rewritten) shards plus, per recovered shard,
   the host label and its recovery breakdown.  [Monitor.observe], the
   fleet round, is the caller. *)
let recover_stale_each ~(fingerprints : Bolt_obj.Fingerprint.t)
    ~(build_id : string) (shards : loaded list) :
    loaded list * (string * Bolt_profile.Stale_match.stats) list =
  if fingerprints = [] || build_id = "" then (shards, [])
  else begin
    let per_shard = ref [] in
    let shards' =
      List.map
        (fun sh ->
          match
            Bolt_profile.Stale_match.recover_if_stale ~fingerprints ~build_id
              sh.sh_prof
          with
          | Some (p, st) ->
              per_shard := (host_of sh, st) :: !per_shard;
              { sh with sh_prof = p }
          | None -> sh)
        shards
    in
    (shards', List.rev !per_shard)
  end

(* The tail both feeders share.  [envelope] gives each source's small
   parts (name, header, fingerprints, lbr) and [feed] replays its records;
   every record is scaled once and summed by [Fdata.accumulate]. *)
let fold ?obs ~opts ~envelope ~feed srcs : Fdata.t =
  let obs = match obs with Some o -> o | None -> Obs.null () in
  Obs.span obs "fleet.merge" (fun () ->
      let shards = List.map envelope srcs in
      let newest = newest_timestamp shards in
      let mheader = merged_header opts shards in
      (* the merged profile describes the target (or modal) revision:
         carry that revision's fingerprints forward, from the
         lexicographically-first shard that has them so the choice never
         depends on input order *)
      let fingerprints =
        List.filter
          (fun sh ->
            (header sh).Fdata.hd_build_id = mheader.Fdata.hd_build_id
            && sh.sh_prof.Fdata.fingerprints <> [])
          shards
        |> List.sort (fun a b -> compare a.sh_name b.sh_name)
        |> function
        | [] -> []
        | sh :: _ -> sh.sh_prof.Fdata.fingerprints
      in
      let merged =
        Fdata.accumulate
          (fun ~branch ~range ~sample ->
            List.iter2
              (fun sh src ->
                scaled (scale_of opts ~newest sh) (feed src) ~branch ~range
                  ~sample)
              shards srcs)
          {
            Fdata.empty with
            Fdata.lbr = List.for_all (fun sh -> sh.sh_prof.Fdata.lbr) shards;
            header = Some mheader;
            fingerprints;
          }
      in
      Obs.incr obs ~by:(List.length shards) "fleet.shards";
      Obs.incr obs
        ~by:(List.length merged.Fdata.branches)
        "fleet.merged_branch_records";
      merged)

let merge ?obs ?(opts = default_options) (shards : loaded list) : Fdata.t =
  fold ?obs ~opts ~envelope:Fun.id
    ~feed:(fun sh -> Fdata.iter_records sh.sh_prof)
    shards

(* Streaming ingest: each shard's text is lexed twice and never parsed
   into record lists.  The first [Fdata.scan] reads only the envelope —
   scales depend on the newest timestamp {e across} shards, so no record
   can be scaled until every header has been seen; the second streams
   the records into the accumulator.  Output is byte-identical to
   [merge] over the same shards parsed. *)
let merge_stream ?obs ?(opts = default_options)
    (shards : (string * string) list) : Fdata.t =
  fold ?obs ~opts shards
    ~envelope:(fun (name, text) ->
      { sh_name = name; sh_prof = fst (Fdata.scan text) })
    ~feed:(fun (_, text) ~branch ~range ~sample ->
      ignore (Fdata.scan ~branch ~range ~sample text))
