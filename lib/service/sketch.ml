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

   Each host's entries sit in one array sorted in eviction order, so
   top-K and the budget, which both take the smallest entries first,
   only ever evict a prefix of it; the budget pops victims across hosts
   through a heap.  Ingest goes through [Fdata.scan]: a function's
   records are folded by [Fdata.fold_records] only once it has made its
   host's top-K. *)

module Fdata = Bolt_profile.Fdata
module Obs = Bolt_obs.Obs

(* One function's records from a host's latest shard, folded by key
   ([Fdata.fold_records]), so an entry is bounded by the function's
   distinct keys. *)
type entry = {
  e_func : string;
  e_events : int64; (* total count mass, eviction priority *)
  e_bytes : int; (* cost-model estimate of this entry *)
  e_branches : Fdata.branch array;
  e_ranges : Fdata.range array;
  e_samples : Fdata.sample array;
}

type host_state = {
  hs_host : string;
  mutable hs_header : Fdata.header;
  mutable hs_lbr : bool;
  mutable hs_fingerprints : Bolt_obj.Fingerprint.t;
  mutable hs_entries : entry array;
      (* ascending in eviction order; every eviction takes the first
         live slot, so the evicted ones are the prefix before [hs_live] *)
  mutable hs_live : int;
  mutable hs_bytes : int; (* sum of live entry costs + host base cost *)
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

(* Deterministic eviction order: least event mass first, then host, then
   function name.  [by_mass] is one level of it: mass, then a name —
   the function's inside a host, the host's across hosts. *)
let by_mass ev1 name1 ev2 name2 =
  let c = Int64.compare ev1 ev2 in
  if c <> 0 then c else String.compare name1 name2

(* What an evicted slot holds, so its records become garbage. *)
let cleared =
  {
    e_func = "";
    e_events = 0L;
    e_bytes = 0;
    e_branches = [||];
    e_ranges = [||];
    e_samples = [||];
  }

let live hs = Array.length hs.hs_entries - hs.hs_live

(* [n] more evictions, with one counter bump per enforcement. *)
let count_evictions t n =
  if n > 0 then begin
    t.evictions <- t.evictions + n;
    Obs.incr t.obs ~by:n "service.sketch_evictions"
  end

(* Evict [hs]'s smallest live entry (not yet counted). *)
let evict_first t (hs : host_state) =
  let e = hs.hs_entries.(hs.hs_live) in
  hs.hs_entries.(hs.hs_live) <- cleared;
  hs.hs_live <- hs.hs_live + 1;
  hs.hs_bytes <- hs.hs_bytes - e.e_bytes;
  t.occupancy <- t.occupancy - e.e_bytes;
  t.evicted_events <- Fdata.sat_add t.evicted_events e.e_events

(* Global budget: evict the fleet-wide smallest entries until occupancy
   falls to a low-water mark (90% of budget), so enforcement runs once
   per handful of shards instead of once per record.  The bound that
   callers observe — occupancy <= budget after every ingest — is exact.

   A binary heap of hosts, keyed by each host's next victim (events,
   host, function), pops entries in the fleet-wide eviction order
   without sorting the fleet: each host's entries are already sorted. *)
let enforce_budget t =
  if t.occupancy > t.budget then begin
    let low_water = t.budget * 9 / 10 in
    let heap =
      Array.of_list
        (Hashtbl.fold
           (fun _ hs acc -> if live hs > 0 then hs :: acc else acc)
           t.hosts [])
    in
    let size = ref (Array.length heap) in
    (* host names are unique, so the function never breaks a tie *)
    let less i j =
      let h1 = heap.(i) and h2 = heap.(j) in
      by_mass h1.hs_entries.(h1.hs_live).e_events h1.hs_host
        h2.hs_entries.(h2.hs_live).e_events h2.hs_host
      < 0
    in
    let rec sift_down i =
      let l = (2 * i) + 1 in
      if l < !size then begin
        let m = if l + 1 < !size && less (l + 1) l then l + 1 else l in
        if less m i then begin
          let x = heap.(i) in
          heap.(i) <- heap.(m);
          heap.(m) <- x;
          sift_down m
        end
      end
    in
    for i = (!size / 2) - 1 downto 0 do
      sift_down i
    done;
    let evicted = ref 0 in
    while t.occupancy > low_water && !size > 0 do
      let hs = heap.(0) in
      evict_first t hs;
      incr evicted;
      if live hs = 0 then begin
        decr size;
        heap.(0) <- heap.(!size)
      end;
      sift_down 0
    done;
    count_evictions t !evicted
  end

(* What one [ingest] call did. *)
type ingested = {
  ig_records : int;
  ig_warnings : int;
  ig_skipped : bool; (* [Merge.torn]: the host's state is unchanged *)
  ig_lines : int; (* newlines in the shard, counted by the scan *)
}

(* One function's records as lexed, before it is ranked. *)
type pending = {
  p_func : string;
  mutable p_events : int64;
  mutable p_branches : Fdata.branch list;
  mutable p_ranges : Fdata.range list;
  mutable p_samples : Fdata.sample list;
}

let entry_of (p : pending) =
  let branches, ranges, samples =
    Fdata.fold_records (fun ~branch ~range ~sample ->
        List.iter branch p.p_branches;
        List.iter range p.p_ranges;
        List.iter sample p.p_samples)
  in
  {
    e_func = p.p_func;
    e_events = p.p_events;
    e_bytes =
      Array.fold_left
        (fun a (b : Fdata.branch) -> a + branch_cost b.Fdata.br_to_func)
        (entry_base + String.length p.p_func)
        branches
      + (range_cost * Array.length ranges)
      + (sample_cost * Array.length samples);
    e_branches = branches;
    e_ranges = ranges;
    e_samples = samples;
  }

(* Fold one arriving shard into the sketch.  The newest shard wins per
   host: a host's previous entries are dropped (not counted as
   evictions — supersession is the protocol, not memory pressure).  The
   scan only sums each function's event mass and keeps its records as
   lexed; the host's top-K functions are then picked from those sums,
   and only they are folded.  The rest are counted as evictions, with
   their mass, without ever being folded.  The new entries replace the
   host's only when the shard passes [Merge.load]'s skip rule, so a torn
   shard leaves the host's entries, header and occupancy as they were;
   its malformed lines are still counted.  The host keeps its previous
   fingerprint table only when the shard carries none and is stamped
   with the same revision; a shard on a new revision brings its own
   table, even an empty one. *)
let ingest t ~host (text : string) : ingested =
  let pending = Hashtbl.create 64 in
  let records = ref 0 in
  let pend func count =
    incr records;
    let p =
      match Hashtbl.find_opt pending func with
      | Some p -> p
      | None ->
          let p =
            {
              p_func = func;
              p_events = 0L;
              p_branches = [];
              p_ranges = [];
              p_samples = [];
            }
          in
          Hashtbl.add pending func p;
          p
    in
    p.p_events <- Fdata.sat_add p.p_events count;
    p
  in
  let newlines = ref 0 in
  let prof, warnings =
    Fdata.scan ~newlines
      ~branch:(fun (b : Fdata.branch) ->
        let p = pend b.Fdata.br_from_func b.Fdata.br_count in
        p.p_branches <- b :: p.p_branches)
      ~range:(fun (r : Fdata.range) ->
        let p = pend r.Fdata.rg_func r.Fdata.rg_count in
        p.p_ranges <- r :: p.p_ranges)
      ~sample:(fun (s : Fdata.sample) ->
        let p = pend s.Fdata.sm_func s.Fdata.sm_count in
        p.p_samples <- s :: p.p_samples)
      text
  in
  let skipped = Bolt_fleet.Merge.torn ~records:!records ~warnings in
  if not skipped then begin
    (* top-K: rank functions in eviction order, evict the prefix.  The
       entries are young; an array made with one forces a minor
       collection once it passes 256 words, so it is made with
       [cleared] and filled. *)
    let ranked =
      Hashtbl.fold (fun _ p acc -> p :: acc) pending []
      |> List.sort (fun p1 p2 ->
             by_mass p1.p_events p1.p_func p2.p_events p2.p_func)
    in
    let dropped = max 0 (Hashtbl.length pending - t.topk) in
    let entries = Array.make (Hashtbl.length pending - dropped) cleared in
    List.iteri
      (fun i p ->
        if i < dropped then
          t.evicted_events <- Fdata.sat_add t.evicted_events p.p_events
        else entries.(i - dropped) <- entry_of p)
      ranked;
    count_evictions t dropped;
    let bytes =
      Array.fold_left
        (fun a e -> a + e.e_bytes)
        (host_base + String.length host)
        entries
    in
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
              hs_live = 0;
              hs_bytes = 0;
            }
          in
          Hashtbl.add t.hosts host hs;
          hs
    in
    hs.hs_entries <- entries;
    hs.hs_live <- 0;
    hs.hs_bytes <- bytes;
    t.occupancy <- t.occupancy + bytes;
    (* provenance from the scan's header view; keep the host's name as
       the service knows it, not the shard's claim *)
    let hd = Option.value ~default:Fdata.no_header prof.Fdata.header in
    if
      prof.Fdata.fingerprints <> []
      || hd.Fdata.hd_build_id <> hs.hs_header.Fdata.hd_build_id
    then hs.hs_fingerprints <- prof.Fdata.fingerprints;
    hs.hs_header <- { hd with Fdata.hd_host = host };
    hs.hs_lbr <- prof.Fdata.lbr;
    enforce_budget t;
    t.peak <- max t.peak t.occupancy
  end;
  t.malformed <- t.malformed + List.length warnings;
  Obs.set t.obs "service.sketch_occupancy_bytes" (float_of_int t.occupancy);
  {
    ig_records = !records;
    ig_warnings = List.length warnings;
    ig_skipped = skipped;
    ig_lines = !newlines;
  }

(* ---- reading the sketch back out ---- *)

let hosts t = Hashtbl.length t.hosts

let funcs t = Hashtbl.fold (fun _ hs acc -> acc + live hs) t.hosts 0

let occupancy t = t.occupancy
let peak t = t.peak
let budget t = t.budget
let evictions t = t.evictions
let evicted_events t = t.evicted_events
let malformed t = t.malformed

(* Materialize one host's retained state as a canonical profile. *)
let profile_of (hs : host_state) : Fdata.t =
  Fdata.accumulate
    (fun ~branch ~range ~sample ->
      for i = hs.hs_live to Array.length hs.hs_entries - 1 do
        let e = hs.hs_entries.(i) in
        Array.iter branch e.e_branches;
        Array.iter range e.e_ranges;
        Array.iter sample e.e_samples
      done)
    {
      Fdata.empty with
      Fdata.lbr = hs.hs_lbr;
      header = Some hs.hs_header;
      fingerprints = hs.hs_fingerprints;
    }

(* Every host's retained shard, in sorted host order — the merger input
   for a service assessment step.  Canonical form regardless of the
   order shards arrived in. *)
let to_shards t : Bolt_fleet.Merge.loaded list =
  Hashtbl.fold (fun _ hs acc -> hs :: acc) t.hosts []
  |> List.sort (fun a b -> String.compare a.hs_host b.hs_host)
  |> List.map (fun hs ->
         Bolt_fleet.Merge.shard_of_profile ~name:hs.hs_host (profile_of hs))
