(** BOLT's profile format (the fdata/YAML analog): function-relative
    branch records, LBR fall-through ranges and plain IP samples.

    Text format, one record per line:
    {v
    mode lbr|sample
    H <key> <value>
    B <from_func> <from_off> <to_func> <to_off> <count> <mispreds>
    F <func> <start_off> <end_off> <count>
    S <func> <off> <count>
    G <func> <size> <opcode_hash> <cfg_hash> <callee,callee|->
    GB <func> <off> <size> <opcode_hash> <shape_hash>
    v}

    [G]/[GB] records carry the structural fingerprints of the binary the
    profile was collected on (copied from its BELF fingerprint table), the
    raw material for stale-profile matching when the profiled revision and
    the optimized revision differ.

    Counts are 64-bit; all accumulation saturates at [Int64.max_int] so a
    fleet-wide merge can only pin a counter, never wrap it.

    A profile is data {e about} a binary, not part of it: a malformed or
    stale profile must degrade optimization quality, never correctness.
    Parsing is lenient by default — malformed and unknown records are
    skipped, each producing a {!warning} — and strict on request.  [H]
    header records are skipped by pre-header readers, and files without
    them parse to [header = None], so the format stays compatible both
    ways. *)

(** Saturating 64-bit add: [min (max_int, a + b)].  Commutative, and
    associative over non-negative operands — the property the fleet
    merger's order-independence rests on. *)
val sat_add : int64 -> int64 -> int64

(** [sat_scale c f] rounds [c *. f] to the nearest count, saturating at
    [Int64.max_int]; non-positive factors yield [0L]. *)
val sat_scale : int64 -> float -> int64

(** Clamp a count to a native [int] for consumers feeding int-based
    machinery (edge weights, call-graph nodes). *)
val clamp_int : int64 -> int

(** Saturating native-int add over non-negative operands:
    [min (max_int, a + b)]. *)
val sat_add_int : int -> int -> int

type branch = {
  br_from_func : string;
  br_from_off : int;
  br_to_func : string;
  br_to_off : int;  (** 0 means the target's entry: a call or tail transfer *)
  br_count : int64;
  br_mispreds : int64;
}

type range = { rg_func : string; rg_start : int; rg_end : int; rg_count : int64 }

type sample = { sm_func : string; sm_off : int; sm_count : int64 }

(** Shard provenance carried in [H] records: who produced the profile,
    against which binary revision, when, and from how many raw events. *)
type header = {
  hd_host : string;
  hd_build_id : string;  (** hex build-id of the profiled binary; [""] unknown *)
  hd_timestamp : int;  (** seconds since the fleet epoch; [0] unknown *)
  hd_events : int64;  (** raw hardware events behind this shard *)
  hd_weight : float;  (** merge-time relative weight; default [1.0] *)
}

val no_header : header
(** All-defaults header: empty host/build-id, timestamp 0, weight 1. *)

type t = {
  lbr : bool;  (** false: only [samples] are meaningful (§5's non-LBR mode) *)
  header : header option;
  branches : branch list;
  ranges : range list;
  samples : sample list;
  total_samples : int64;
  fingerprints : Bolt_obj.Fingerprint.func list;
      (** fingerprints of the profiled binary ([G]/[GB] records); [[]] for
          shards converted before fingerprinting existed *)
}

val empty : t

(** Aggregate event count attributed to each function — the hotness the
    reorder-functions pass sorts by. *)
val func_events : t -> (string, int64) Hashtbl.t

(** [iter_records t ~branch ~range ~sample] passes each of [t]'s records,
    in list order, to the callback for its kind. *)
val iter_records :
  t ->
  branch:(branch -> unit) ->
  range:(range -> unit) ->
  sample:(sample -> unit) ->
  unit

(** The one branch record order, on [String.compare] and [Int.compare]
    over the key fields [(from_func, from_off, to_func, to_off)]; ranges
    are ordered by [(func, start, end)] and samples by [(func, off)] the
    same way.  On records with distinct keys it is the order polymorphic
    [compare] gives. *)
val compare_branch : branch -> branch -> int

(** Records per kind that {!fold_records} buffers before it sorts and
    folds them into its run (65,536). *)
val fold_chunk : int

(** The one sort-and-fold.  [fold_records feed] runs [feed] once with a
    callback per record kind and returns its records summed by key with
    {!sat_add}, one record per key, each array sorted by its kind's
    comparator.  Records are sorted and folded a {!fold_chunk} at a
    time, so live memory is one record per distinct key plus one chunk. *)
val fold_records :
  (branch:(branch -> unit) -> range:(range -> unit) -> sample:(sample -> unit) -> unit) ->
  branch array * range array * sample array

(** The one record accumulator.  [accumulate feed t] returns [t] with
    [fold_records feed] as its record lists, [total_samples] recomputed
    and [fingerprints] sorted and deduplicated.  Feeds holding the same
    multiset of events give identical values — and identical bytes —
    which is what makes merged output independent of shard order.
    {!normalize} feeds it a profile's own records; the fleet merger
    feeds it scaled records from many shards. *)
val accumulate :
  (branch:(branch -> unit) -> range:(range -> unit) -> sample:(sample -> unit) -> unit) ->
  t ->
  t

(** Canonical form: [accumulate (iter_records t) t] — duplicate records
    (same endpoints) aggregated with {!sat_add}, then sorted. *)
val normalize : t -> t

val to_string : t -> string
(** Canonical text dump, via the iocore arena writer (hand-rolled
    decimal/hex emission — no Printf per record). *)

val save : string -> t -> unit

(** Raised by strict-mode parsing on the first malformed record. *)
exception Bad_format of string

(** One skipped record from a lenient parse. *)
type warning = { w_line : int; w_text : string; w_reason : string }

val pp_warning : Format.formatter -> warning -> unit

val default_max_warnings : int
(** Lenient parses keep at most this many per-line warnings (100) before
    folding the remainder into a single "+K more malformed lines skipped"
    summary warning ([w_line = 0], [w_text = ""]), so a corrupt
    million-line fleet shard cannot flood stderr. *)

(** [parse text] reads the text format.  Lenient by default: malformed
    records (wrong field counts, non-integer or negative fields, unknown
    tags, inverted ranges) are skipped and reported as warnings, capped
    at [max_warnings] (default {!default_max_warnings}) plus the summary.
    With [~strict:true] the first malformed record raises {!Bad_format}.

    Implemented on the iocore allocation-free lexer: index-based field
    scanning, integers parsed in place, strings materialized only for
    fields a surviving record keeps.  Accept/reject behaviour and
    warning texts match the split-based parser the iocore parity suite
    keeps as its oracle. *)
val parse : ?strict:bool -> ?max_warnings:int -> string -> t * warning list

(** Streaming form of {!parse} for consumers that must not materialize
    record lists (the fleet merger ingesting million-line shards):
    [branch]/[range]/[sample] are invoked per record in file order, and
    the returned profile carries only the small parts — [lbr], [header],
    [fingerprints], [total_samples] — with empty record lists.
    [newlines], when given, is set to the number of ['\n'] characters
    in the text, counted on the way. *)
val scan :
  ?strict:bool ->
  ?max_warnings:int ->
  ?branch:(branch -> unit) ->
  ?range:(range -> unit) ->
  ?sample:(sample -> unit) ->
  ?newlines:int ref ->
  string ->
  t * warning list

val load_with_warnings :
  ?strict:bool -> ?max_warnings:int -> string -> t * warning list

val load : ?strict:bool -> string -> t
