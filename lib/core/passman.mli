(* The first-class pass manager: Table 1 as data.  See passman.ml for
   the execution model and the per-function determinism contract. *)

type env = {
  ctx : Context.t;
  prof : Bolt_profile.Fdata.t;
  pool : Pool.t;
}

type kind =
  | Whole_program of (env -> Bolt_obs.Metrics.t -> unit)
  | Per_function of {
      pf_funcs : Context.t -> Bfunc.t list;
      pf_visit : env -> Context.shard -> Bfunc.t -> unit;
    }

type pass = {
  p_name : string;
  p_enabled : Opts.t -> bool;
  p_kind : kind;
  p_post : env -> Bolt_obs.Metrics.t -> unit;
}

val no_post : env -> Bolt_obs.Metrics.t -> unit

(* Build an environment; the pool defaults to one sized by
   [ctx.opts.jobs]. *)
val make_env : ?pool:Pool.t -> Context.t -> Bolt_profile.Fdata.t -> env

(* Run [f] as a named pipeline stage: trace span, functions-modified
   accounting.  For driver steps that are not registry passes. *)
val stage : env -> string -> (unit -> 'a) -> 'a

(* Run one pass / a pass list.  Disabled passes are skipped entirely (no
   span).  A [Per_function] pass fans out over the env's pool; quarantine
   and metrics behave identically at any pool width. *)
val run_pass : env -> pass -> unit
val run : env -> pass list -> unit

(* Descriptor constructors (exposed for tests and extensions). *)
val pf :
  string ->
  (Opts.t -> bool) ->
  ?funcs:(Context.t -> Bfunc.t list) ->
  ?post:(env -> Bolt_obs.Metrics.t -> unit) ->
  (env -> Context.shard -> Bfunc.t -> unit) ->
  pass

val wp :
  string ->
  (Opts.t -> bool) ->
  ?post:(env -> Bolt_obs.Metrics.t -> unit) ->
  (env -> Bolt_obs.Metrics.t -> unit) ->
  pass

(* Figure 3 front half: build-cfg (per-function, over all functions) and
   match-profile. *)
val pre_passes : pass list

(* Table 1, in the paper's order. *)
val table1 : pass list

(* The registered pass named [name], from [pre_passes] or [table1]: how
   tests and `obolt --print-cfg` run a single pass.  Raises [Not_found]. *)
val find : string -> pass
