(* Structured diagnostics for the hardened rewrite pipeline.

   BOLT's production stance (§7) is graceful degradation: whatever goes
   wrong while rebuilding one function must never take down the whole
   rewrite.  Every stage therefore reports through this module instead of
   raising: per-function and per-pass records with a severity, plus
   counters, are accumulated on the binary context and surfaced in the
   final report.  Record storage is capped so a hostile input cannot blow
   up memory by generating millions of warnings; the counters keep the
   true totals. *)

type severity = Warning | Error

let severity_name = function
  | Warning -> "warning"
  | Error -> "error"

type record = {
  d_severity : severity;
  d_stage : string; (* pipeline stage or pass name *)
  d_func : string option; (* affected function, when per-function *)
  d_msg : string;
}

(* Raised when [Opts.strict] turns a degradation into a hard failure. *)
exception Strict_error of string

(* Raised when more functions than [Opts.max_quarantine] were demoted. *)
exception Quarantine_limit of int

type t = {
  mutable records : record list; (* newest first, capped *)
  mutable dropped : int; (* records not stored because of the cap *)
  mutable n_warning : int;
  mutable n_error : int;
  mutable quarantined : (string * string) list; (* function, stage; newest first *)
  max_records : int;
}

let create ?(max_records = 500) () =
  {
    records = [];
    dropped = 0;
    n_warning = 0;
    n_error = 0;
    quarantined = [];
    max_records;
  }

let count t = function
  | Warning -> t.n_warning
  | Error -> t.n_error

let total t = t.n_warning + t.n_error

let add t severity ~stage ?func msg =
  (match severity with
  | Warning -> t.n_warning <- t.n_warning + 1
  | Error -> t.n_error <- t.n_error + 1);
  if total t - t.dropped > t.max_records then t.dropped <- t.dropped + 1
  else
    t.records <-
      { d_severity = severity; d_stage = stage; d_func = func; d_msg = msg }
      :: t.records

(* A record past the cap is only counted, so its message is never
   formatted: a stale profile can raise thousands of warnings. *)
let emitf t severity ~stage ?func fmt =
  if total t - t.dropped >= t.max_records then
    Format.ikfprintf
      (fun _ -> add t severity ~stage ?func "")
      Format.str_formatter fmt
  else Fmt.kstr (add t severity ~stage ?func) fmt

let warnf t ~stage ?func fmt = emitf t Warning ~stage ?func fmt
let errorf t ~stage ?func fmt = emitf t Error ~stage ?func fmt

(* A function was demoted to non-simple and left byte-identical. *)
let quarantine t ~stage ~func msg =
  t.quarantined <- (func, stage) :: t.quarantined;
  errorf t ~stage ~func "quarantined: %s" msg

let quarantined_count t = List.length t.quarantined
let quarantined t = List.rev t.quarantined

(* Oldest first. *)
let records t = List.rev t.records
