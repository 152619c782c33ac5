(** Figure-9 style heat maps of the instruction address space.

    Input: the simulator's per-cache-line fetch histogram.  Output: a
    [rows] x [cols] matrix of log-scaled per-byte fetch averages, a
    terminal rendering, and two scalar summaries used by the experiments:
    how much of the heat lands in a prefix of the text, and how far into
    the text any heat extends. *)

type t = {
  base : int;  (** first address covered *)
  span : int;  (** bytes covered *)
  bucket : int;  (** bytes per cell *)
  rows : int;
  cols : int;
  cells : float array;  (** row-major; log10 (1 + avg fetches per byte) *)
}

(** [build ~base ~span heat] buckets a (line-address -> fetch count)
    histogram into a matrix; default geometry 64x64 like the paper's. *)
val build :
  ?rows:int -> ?cols:int -> base:int -> span:int -> (int, int) Hashtbl.t -> t

(** Fraction (0..1) of total heat inside the first [frac] of the span. *)
val heat_in_prefix : t -> float -> float

(** Bytes from [base] to the last cell with any heat: the extent of code
    actually touched.  0 for an empty histogram. *)
val hot_extent : t -> int

(** Scalar summary (geometry, hot extent, prefix packing, cell
    population) as a JSON section for the run manifest. *)
val summary_json : t -> Bolt_obs.Json.t

(** ASCII rendering, one glyph per cell, log-scaled like Figure 9. *)
val render : Format.formatter -> t -> unit
