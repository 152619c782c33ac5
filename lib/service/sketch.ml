(* Bounded-memory per-host fleet state: what a continuous-optimization
   daemon remembers between re-optimizations.

   One shard arrives per host per reporting interval; keeping every
   record of every host forever is exactly what a daemon cannot do, so
   the sketch holds, per host, the header provenance (build-id,
   timestamp, event total) plus at most [topk] function entries — the
   functions with the largest event mass — and the whole sketch lives
   under a hard byte budget estimated by a fixed per-record cost model
   (the steady-state RSS proxy that perfbench's fleet-ingest workload
   reports as service.sketch_peak_bytes).

   Eviction is *saturating*: evicted entries are gone, but their event
   mass is accumulated (64-bit saturating add) in [evicted_events] and
   each eviction bumps a counter, so the quality cost of the bound is
   observable rather than silent.  Eviction order is deterministic —
   smallest event mass first, ties broken by (host, function) — so two
   services fed the same shards in any order inside a step agree on
   every byte of state.

   Ingest goes through [Fdata.scan]: records are folded into the
   per-function entries as the lexer produces them, and per-shard
   record lists never materialize. *)

module Fdata = Bolt_profile.Fdata
module Obs = Bolt_obs.Obs

(* One function's accumulated records from a host's latest shard.
   Records of the same key are summed at ingest (saturating), so an
   entry is bounded by the function's distinct (offset-pair) keys. *)
type entry = {
  e_func : string;
  mutable e_events : int64; (* total count mass, eviction priority *)
  mutable e_bytes : int; (* cost-model estimate of this entry *)
  mutable e_branches : (int * string * int, int64 * int64) Hashtbl.t;
  mutable e_ranges : (int * int, int64) Hashtbl.t;
  mutable e_samples : (int, int64) Hashtbl.t;
}

type host_state = {
  hs_host : string;
  mutable hs_header : Fdata.header;
  mutable hs_lbr : bool;
  mutable hs_fingerprints : Bolt_obj.Fingerprint.t;
  mutable hs_entries : (string, entry) Hashtbl.t;
  mutable hs_bytes : int; (* sum of entry costs + host base cost *)
}

type t = {
  topk : int; (* max function entries per host *)
  budget : int; (* global byte budget over all hosts' entries *)
  obs : Obs.t;
  hosts : (string, host_state) Hashtbl.t;
  mutable occupancy : int; (* current cost-model bytes *)
  mutable peak : int; (* high-water mark, sampled after each ingest *)
  mutable evictions : int;
  mutable evicted_events : int64; (* saturating mass lost to eviction *)
  mutable malformed : int;
}

(* ---- cost model (bytes per retained element) ----
   Fixed constants, not live measurements: the point is a deterministic,
   platform-independent occupancy that moves with what is retained. *)

let host_base = 96
let entry_base = 64
let branch_cost tf = 56 + String.length tf
let range_cost = 40
let sample_cost = 32

let create ?obs ~topk ~budget () =
  let obs = match obs with Some o -> o | None -> Obs.null () in
  {
    topk = max 1 topk;
    budget = max 1 budget;
    obs;
    hosts = Hashtbl.create 64;
    occupancy = 0;
    peak = 0;
    evictions = 0;
    evicted_events = 0L;
    malformed = 0;
  }

let entry_of func =
  {
    e_func = func;
    e_events = 0L;
    e_bytes = entry_base + String.length func;
    e_branches = Hashtbl.create 8;
    e_ranges = Hashtbl.create 4;
    e_samples = Hashtbl.create 4;
  }

let evict_entry t (hs : host_state) (e : entry) =
  Hashtbl.remove hs.hs_entries e.e_func;
  hs.hs_bytes <- hs.hs_bytes - e.e_bytes;
  t.occupancy <- t.occupancy - e.e_bytes;
  t.evictions <- t.evictions + 1;
  t.evicted_events <- Fdata.sat_add t.evicted_events e.e_events;
  Obs.incr t.obs "service.sketch_evictions"

(* Deterministic eviction order: least event mass first, then host, then
   function name. *)
let evict_order (h1, (e1 : entry)) (h2, (e2 : entry)) =
  compare (e1.e_events, h1, e1.e_func) (e2.e_events, h2, e2.e_func)

let enforce_topk t (hs : host_state) =
  let n = Hashtbl.length hs.hs_entries in
  if n > t.topk then begin
    let entries =
      Hashtbl.fold (fun _ e acc -> (hs.hs_host, e) :: acc) hs.hs_entries []
      |> List.sort evict_order
    in
    let rec drop k = function
      | (_, e) :: rest when k > 0 ->
          evict_entry t hs e;
          drop (k - 1) rest
      | _ -> ()
    in
    drop (n - t.topk) entries
  end

(* Global budget: evict the fleet-wide smallest entries until occupancy
   falls to a low-water mark (90% of budget), so enforcement runs once
   per handful of shards instead of once per record.  The bound that
   callers observe — occupancy <= budget after every ingest — is exact. *)
let enforce_budget t =
  if t.occupancy > t.budget then begin
    let low_water = t.budget * 9 / 10 in
    let all =
      Hashtbl.fold
        (fun _ hs acc ->
          Hashtbl.fold (fun _ e acc -> (hs, e) :: acc) hs.hs_entries acc)
        t.hosts []
      |> List.sort (fun (h1, e1) (h2, e2) ->
             evict_order (h1.hs_host, e1) (h2.hs_host, e2))
    in
    let rec go = function
      | (hs, e) :: rest when t.occupancy > low_water ->
          evict_entry t hs e;
          go rest
      | _ -> ()
    in
    go all
  end

(* What one [ingest] call did. *)
type ingested = {
  ig_records : int;
  ig_warnings : int;
  ig_skipped : bool; (* [Merge.torn]: the host's state is unchanged *)
}

(* Fold one arriving shard into the sketch.  The newest shard wins per
   host: a host's previous entries are dropped (not counted as
   evictions — supersession is the protocol, not memory pressure).  The
   shard is lexed into fresh entries that replace the host's only when
   it passes [Merge.load]'s skip rule, so a torn shard leaves the host's
   entries, header and occupancy as they were; its malformed lines are
   still counted. *)
let ingest t ~host (text : string) : ingested =
  let entries = Hashtbl.create 64 in
  let bytes = ref (host_base + String.length host) in
  let records = ref 0 in
  let entry func =
    match Hashtbl.find_opt entries func with
    | Some e -> e
    | None ->
        let e = entry_of func in
        Hashtbl.add entries func e;
        bytes := !bytes + e.e_bytes;
        e
  in
  let grow e by =
    e.e_bytes <- e.e_bytes + by;
    bytes := !bytes + by
  in
  let prof, warnings =
    Fdata.scan
      ~branch:(fun (b : Fdata.branch) ->
        incr records;
        let e = entry b.Fdata.br_from_func in
        e.e_events <- Fdata.sat_add e.e_events b.Fdata.br_count;
        let k = (b.Fdata.br_from_off, b.Fdata.br_to_func, b.Fdata.br_to_off) in
        (match Hashtbl.find_opt e.e_branches k with
        | Some (c, m) ->
            Hashtbl.replace e.e_branches k
              ( Fdata.sat_add c b.Fdata.br_count,
                Fdata.sat_add m b.Fdata.br_mispreds )
        | None ->
            Hashtbl.add e.e_branches k (b.Fdata.br_count, b.Fdata.br_mispreds);
            grow e (branch_cost b.Fdata.br_to_func)))
      ~range:(fun (r : Fdata.range) ->
        incr records;
        let e = entry r.Fdata.rg_func in
        e.e_events <- Fdata.sat_add e.e_events r.Fdata.rg_count;
        let k = (r.Fdata.rg_start, r.Fdata.rg_end) in
        (match Hashtbl.find_opt e.e_ranges k with
        | Some c -> Hashtbl.replace e.e_ranges k (Fdata.sat_add c r.Fdata.rg_count)
        | None ->
            Hashtbl.add e.e_ranges k r.Fdata.rg_count;
            grow e range_cost))
      ~sample:(fun (s : Fdata.sample) ->
        incr records;
        let e = entry s.Fdata.sm_func in
        e.e_events <- Fdata.sat_add e.e_events s.Fdata.sm_count;
        match Hashtbl.find_opt e.e_samples s.Fdata.sm_off with
        | Some c ->
            Hashtbl.replace e.e_samples s.Fdata.sm_off
              (Fdata.sat_add c s.Fdata.sm_count)
        | None ->
            Hashtbl.add e.e_samples s.Fdata.sm_off s.Fdata.sm_count;
            grow e sample_cost)
      text
  in
  let skipped = Bolt_fleet.Merge.torn ~records:!records ~warnings in
  if not skipped then begin
    let hs =
      match Hashtbl.find_opt t.hosts host with
      | Some hs ->
          (* superseded: replace entries, keep identity *)
          t.occupancy <- t.occupancy - hs.hs_bytes;
          hs
      | None ->
          let hs =
            {
              hs_host = host;
              hs_header = Fdata.no_header;
              hs_lbr = true;
              hs_fingerprints = [];
              hs_entries = entries;
              hs_bytes = 0;
            }
          in
          Hashtbl.add t.hosts host hs;
          hs
    in
    hs.hs_entries <- entries;
    hs.hs_bytes <- !bytes;
    t.occupancy <- t.occupancy + !bytes;
    (* provenance from the scan's header view; keep the host's name as
       the service knows it, not the shard's claim *)
    let hd = Option.value ~default:Fdata.no_header prof.Fdata.header in
    hs.hs_header <- { hd with Fdata.hd_host = host };
    hs.hs_lbr <- prof.Fdata.lbr;
    if prof.Fdata.fingerprints <> [] then
      hs.hs_fingerprints <- prof.Fdata.fingerprints;
    enforce_topk t hs;
    enforce_budget t;
    t.peak <- max t.peak t.occupancy
  end;
  t.malformed <- t.malformed + List.length warnings;
  Obs.set t.obs "service.sketch_occupancy_bytes" (float_of_int t.occupancy);
  {
    ig_records = !records;
    ig_warnings = List.length warnings;
    ig_skipped = skipped;
  }

(* ---- reading the sketch back out ---- *)

let hosts t = Hashtbl.length t.hosts

let funcs t =
  Hashtbl.fold (fun _ hs acc -> acc + Hashtbl.length hs.hs_entries) t.hosts 0

let occupancy t = t.occupancy
let peak t = t.peak
let budget t = t.budget
let evictions t = t.evictions
let evicted_events t = t.evicted_events
let malformed t = t.malformed

(* Materialize one host's retained state as a canonical profile. *)
let profile_of (hs : host_state) : Fdata.t =
  let branches = ref [] and ranges = ref [] and samples = ref [] in
  Hashtbl.iter
    (fun _ (e : entry) ->
      Hashtbl.iter
        (fun (fo, tf, to_) (c, m) ->
          branches :=
            {
              Fdata.br_from_func = e.e_func;
              br_from_off = fo;
              br_to_func = tf;
              br_to_off = to_;
              br_count = c;
              br_mispreds = m;
            }
            :: !branches)
        e.e_branches;
      Hashtbl.iter
        (fun (s, en) c ->
          ranges :=
            { Fdata.rg_func = e.e_func; rg_start = s; rg_end = en; rg_count = c }
            :: !ranges)
        e.e_ranges;
      Hashtbl.iter
        (fun o c ->
          samples :=
            { Fdata.sm_func = e.e_func; sm_off = o; sm_count = c } :: !samples)
        e.e_samples)
    hs.hs_entries;
  Fdata.normalize
    {
      Fdata.lbr = hs.hs_lbr;
      header = Some hs.hs_header;
      branches = !branches;
      ranges = !ranges;
      samples = !samples;
      total_samples = 0L (* recomputed by normalize *);
      fingerprints = hs.hs_fingerprints;
    }

(* Every host's retained shard, in sorted host order — the merger input
   for a service assessment step.  Canonical form regardless of the
   order shards arrived in. *)
let to_shards t : Bolt_fleet.Merge.loaded list =
  Hashtbl.fold (fun _ hs acc -> hs :: acc) t.hosts []
  |> List.sort (fun a b -> compare a.hs_host b.hs_host)
  |> List.map (fun hs ->
         Bolt_fleet.Merge.shard_of_profile ~name:hs.hs_host (profile_of hs))
