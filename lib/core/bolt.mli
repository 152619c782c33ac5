(** The BOLT driver: Figure 3's rewriting pipeline with Table 1's
    optimization sequence.

    Typical use:
    {[
      let exe', report = Bolt.optimize ~opts:Opts.default exe profile in
      Bolt_obj.Objfile.save "prog.bolt.x" exe'
    ]} *)

(** Summary of what one [optimize] run did: per-pass counters, profile
    match quality, dyno-stats before/after (Table 2), code-size effects,
    and the bad-layout findings collected on the {e original} layout
    (Figure 10). *)
type report = {
  r_funcs : int;  (** functions discovered (symbol table + frame info) *)
  r_simple : int;  (** functions with a fully reconstructed CFG *)
  r_icf_folded : int;  (** identical functions folded (both ICF runs) *)
  r_icf_bytes : int;  (** code bytes eliminated by ICF *)
  r_icp_promoted : int;  (** indirect call sites promoted *)
  r_inlined : int;  (** call sites inlined by inline-small *)
  r_frame_saves_removed : int;  (** dead callee-saved spills removed *)
  r_shrink_wrapped : int;  (** saves moved next to their cold uses *)
  r_profile_branches_matched : int;
  r_profile_branches_unmatched : int;
  r_profile_stale_records : int;
      (** profile records whose offsets fall outside the named function *)
  r_profile_unknown_funcs : int;
      (** distinct profile names with no function in the binary *)
  r_profile_staleness : float;
      (** fraction (0..1) of branch records that were stale — the §7
          profile-decay measure, also exported to the run manifest *)
  r_recovery : Bolt_profile.Stale_match.stats option;
      (** stale-profile recovery breakdown (functions matched
          exact/fuzzy/inferred/dropped); [None] when the profile was
          fresh, unmatchable, or [Opts.stale_match] was off *)
  r_dyno_before : Dyno_stats.t;  (** profile-weighted stats, input layout *)
  r_dyno_after : Dyno_stats.t;  (** same, final layout *)
  r_layout_before : (string * int * Bolt_layout.Evaluator.result) list;
      (** per-function offline layout evaluation of the input layout
          (name, exec count, ExtTSP score + working-set estimate),
          hottest functions first *)
  r_layout_after : (string * int * Bolt_layout.Evaluator.result) list;
      (** same, final layout *)
  r_text_before : int;  (** code bytes before rewriting *)
  r_text_after : int;
  r_hot_size : int;  (** bytes in the hot area (relocations mode) *)
  r_cold_size : int;  (** bytes moved to the cold area *)
  r_bad_layout : Report.finding list;  (** §6.3's interleaving report *)
  r_quarantined : (string * string) list;
      (** functions demoted to their verbatim input bytes after a pass or
          emitter failure, with the stage that failed; oldest first *)
  r_diagnostics : Diag.record list;  (** structured diagnostics, oldest first *)
  r_diag_errors : int;
  r_diag_warnings : int;
  r_identity_fallback : bool;
      (** the rewrite could not complete and the output is the input,
          byte-identical (never set under [Opts.strict]) *)
  r_log : string list;  (** one line per pass, in execution order *)
}

(** [optimize ~opts exe profile] rewrites the executable under the given
    options and returns the new binary together with the report.  The
    rewritten binary is behaviourally identical to the input by
    construction; only its layout and instruction selection change.
    Relocations mode (whole-binary function reordering) is used when the
    input retains linker relocations, unless [opts.use_relocations]
    overrides the choice.

    Degradation ladder, in order of preference: malformed profile records
    are skipped at parse time; a stale profile record degrades that
    function's profile to unmatched/partial; a pass or emitter failure
    quarantines the one affected function back to its input bytes; a
    whole-program pass failure skips that pass; and if the rewrite itself
    cannot complete, the input is returned unchanged with
    [r_identity_fallback] set.  Only three exceptions escape:
    {!Context.Bolt_error} on structurally invalid input,
    {!Diag.Strict_error} when [opts.strict] forbids degradation, and
    {!Diag.Quarantine_limit} when [opts.max_quarantine] is exceeded.

    When [obs] is supplied, every pipeline stage runs inside a trace
    span on it (wall time, functions modified, registry-counter deltas)
    and profile-quality metrics are recorded — the data behind
    [--trace-out] and [--time-opts]; omitted, a private handle is
    created so instrumentation stays on for in-process callers. *)
val optimize :
  ?opts:Opts.t ->
  ?obs:Bolt_obs.Obs.t ->
  Bolt_obj.Objfile.t ->
  Bolt_profile.Fdata.t ->
  Bolt_obj.Objfile.t * report

(** [eval_state env suffix] evaluates the context's current CFG state,
    as [optimize] does before and after Table 1, in the stages
    [layout-eval] and [dyno-stats] with [suffix] appended to their
    names: the per-function layout rows (as [r_layout_before]) and the
    dyno-stats, from one layout evaluation.  If the evaluation fails,
    both stages are skipped with a diagnostic each: no layout rows and
    zero dyno-stats. *)
val eval_state :
  Passman.env ->
  string ->
  (string * int * Bolt_layout.Evaluator.result) list * Dyno_stats.t

(** Render the report in the style of BOLT's console output, including the
    dyno-stats before/after table. *)
val pp_report : Format.formatter -> report -> unit

(** A stale-profile recovery breakdown as the manifests' [recovery]
    object ([null] when there was none); the run manifest's
    [profile_quality] and the fleet manifest's [fleet] section both
    carry it. *)
val recovery_json : Bolt_profile.Stale_match.stats option -> Bolt_obs.Json.t

(** The report as stable JSON manifest sections ([report],
    [profile_quality], [dyno_stats], [layout], [quarantine],
    [diagnostics], [bad_layout]) for {!Bolt_obs.Manifest.make}. *)
val manifest_sections : report -> (string * Bolt_obs.Json.t) list
