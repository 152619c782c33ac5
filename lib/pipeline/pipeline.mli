(** End-to-end experiment driver: the tool flow of Figure 1.

    {[
      let b = Pipeline.compile [ ("m", source) ] in
      let prof, _ = Pipeline.profile b ~input in
      let b', report = Pipeline.bolt b prof in
      let base = Pipeline.run b ~input and opt = Pipeline.run b' ~input in
      assert (Pipeline.same_behaviour base opt);
      Pipeline.speedup ~baseline:base ~optimized:opt
    ]} *)

module Machine = Bolt_sim.Machine
module Obs = Bolt_obs.Obs

(** A built executable together with the compiler options that produced it
    (profiling re-runs need the same options). *)
type build = { exe : Bolt_obj.Objfile.t; cc : Bolt_minic.Driver.options }

(** Every stage accepts an optional telemetry bundle ([?obs]); given one,
    the stage runs inside a span ("compile", "profile", "bolt", "run") and
    records stage metrics, so a driver gets a single trace across the whole
    experiment. Omitted, the helpers are telemetry-free. *)

(** Compile and link MiniC [sources].  [?externals] (name, arity) declares
    functions that [?extra_objs], pre-assembled objects linked beside the
    sources, define: a generated workload's [Gen.externals] and
    [Gen.extra_objs]. Both go straight to {!Bolt_minic.Driver.compile}. *)
val compile :
  ?obs:Obs.t ->
  ?cc:Bolt_minic.Driver.options ->
  ?externals:(string * int) list ->
  ?extra_objs:Bolt_obj.Objfile.t list ->
  (string * string) list ->
  build

(** The revision identity a deployment pipeline keys on: the build-id
    stamp and CFG fingerprint table of the built binary. These are what
    {!Bolt_fleet.Merge} staleness recovery and the fleet health monitor
    expect for the target revision. *)
val build_id : build -> string

val fingerprints : build -> Bolt_obj.Fingerprint.t

(** LBR sampling on cycles, the paper's [-e cycles:u -j any,u]. *)
val default_sampling : Machine.sample_cfg

(** Run under the sampling profiler and aggregate to an fdata profile. *)
val profile :
  ?obs:Obs.t ->
  ?sampling:Machine.sample_cfg ->
  ?config:Machine.config ->
  build ->
  input:int array ->
  Bolt_profile.Fdata.t * Machine.outcome

(** Like {!profile}, but stamp the resulting fdata with a fleet
    provenance header: the host label, the build's build-id, the given
    collection [timestamp] and the raw sampling-event count. The fleet
    merger ({!Bolt_fleet.Merge}) keys weighting, age-decay and staleness
    checks on this header. *)
val profile_shard :
  ?obs:Obs.t ->
  ?sampling:Machine.sample_cfg ->
  ?config:Machine.config ->
  host:string ->
  ?weight:float ->
  timestamp:int ->
  build ->
  input:int array ->
  Bolt_profile.Fdata.t * Machine.outcome

(** Apply BOLT, returning the rewritten build and its report. With [?obs]
    the per-pass spans of the optimizer nest under this stage's "bolt"
    span. [?jobs] overrides [opts.jobs] (worker domains for per-function
    passes); output is byte-identical regardless of the value. *)
val bolt :
  ?obs:Obs.t ->
  ?opts:Bolt_core.Opts.t ->
  ?jobs:int ->
  build ->
  Bolt_profile.Fdata.t ->
  build * Bolt_core.Bolt.report

val run :
  ?obs:Obs.t ->
  ?config:Machine.config ->
  ?heatmap:bool ->
  build ->
  input:int array ->
  Machine.outcome

(** Instrumentation-based compiler PGO: build with edge counters, run on
    the training input, and return the edge profile for
    {!Bolt_minic.Driver.Apply}. *)
val pgo_profile :
  ?externals:(string * int) list ->
  ?extra_objs:Bolt_obj.Objfile.t list ->
  cc:Bolt_minic.Driver.options ->
  (string * string) list ->
  input:int array ->
  (string * int * int * int) list

(** Profile a binary and compute an HFSort function order for relinking —
    the paper's data-center baseline. *)
val hfsort_order :
  ?algo:Bolt_hfsort.Order.algo -> build -> input:int array -> string list

(** Percentage speedup of [optimized] over [baseline] (cycle ratio). *)
val speedup : baseline:Machine.outcome -> optimized:Machine.outcome -> float

(** [miss_reduction ~before ~after] in percent; 0 when [before] is 0. *)
val miss_reduction : before:int -> after:int -> float

type metric_deltas = {
  d_cycles : float;  (** CPU-time reduction, % *)
  d_instructions : float;
  d_branch_miss : float;
  d_l1i_miss : float;
  d_l1d_miss : float;
  d_llc_miss : float;
  d_itlb_miss : float;
  d_dtlb_miss : float;
  d_taken_branches : float;
}

val deltas : baseline:Machine.outcome -> optimized:Machine.outcome -> metric_deltas

(** The repository's central invariant: same output tape, exit code and
    exception behaviour. *)
val same_behaviour : Machine.outcome -> Machine.outcome -> bool
