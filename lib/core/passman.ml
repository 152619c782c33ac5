(* The first-class pass manager: Table 1 as data.

   A pass is a descriptor — name, enablement predicate over [Opts.t], and
   a body that is either [Whole_program] (runs once, single-domain) or
   [Per_function] (a visitor the executor fans out over the domain pool).
   The registry below assembles the paper's Figure 3 / Table 1 pipeline
   declaratively; [Bolt.optimize] just runs it.  Adding a pass (e.g. the
   improved-reordering or stale-matching follow-up papers) is one more
   descriptor in the list, not driver surgery.

   Uniform wrapping: every enabled pass runs inside a trace span that
   reports wall time, functions modified and metric movement; every
   per-function body runs under the quarantine barrier; and every pass
   writes its counters into a fresh per-invocation registry that is
   merged into [Context.stats] (the report's source of truth) and
   mirrored into the run's [Obs] registry for manifests.

   Determinism contract for [Per_function] passes: the visitor may
   mutate only the [Bfunc.t] it was handed and the shard, with all
   shared context state read-only; shards are folded in original address
   order at the join.  Output is therefore byte-identical at any -j. *)

module Obs = Bolt_obs.Obs
module Json = Bolt_obs.Json
module Metrics = Bolt_obs.Metrics

type env = { ctx : Context.t; prof : Bolt_profile.Fdata.t; pool : Pool.t }

type kind =
  | Whole_program of (env -> Metrics.t -> unit)
  | Per_function of {
      pf_funcs : Context.t -> Bfunc.t list;
          (* work list; evaluated after the visitor's prelude *)
      pf_visit : env -> Context.shard -> Bfunc.t -> unit;
          (* [pf_visit env] runs once per pass on the main domain (the
             sequential prelude — e.g. an index built from all
             functions); the returned visitor runs per function on
             worker domains *)
    }

type pass = {
  p_name : string;
  p_enabled : Opts.t -> bool;
  p_kind : kind;
  p_post : env -> Metrics.t -> unit;
      (* runs after the join with the pass's own registry: summary log
         lines, derived counters *)
}

let no_post _ _ = ()

let make_env ?pool ctx prof =
  let pool =
    match pool with
    | Some p -> p
    | None -> Pool.create ~jobs:ctx.Context.opts.Opts.jobs ()
  in
  { ctx; prof; pool }

(* Run one pipeline stage inside a trace span.  The span records wall
   time, the number of functions the stage modified (the [touched] flags
   it set, cleared here for the next stage), and — through [Obs.span] —
   whichever registry counters moved while it ran. *)
let stage env name f =
  let ctx = env.ctx in
  Obs.span ctx.Context.obs name (fun () ->
      let r = f () in
      let n =
        Array.fold_left
          (fun n (fb : Bfunc.t) ->
            if fb.touched then begin
              fb.touched <- false;
              n + 1
            end
            else n)
          0 ctx.Context.funcs
      in
      Obs.set_attr ctx.Context.obs "funcs_modified" (Json.Int n);
      if n > 0 then
        Obs.incr ctx.Context.obs ~by:n ("pass." ^ name ^ ".funcs_modified");
      r)

(* The parallel executor for a [Per_function] pass.  Fan the work list
   out over the pool with one shard per worker domain; at the join, fold
   quarantine verdicts/diagnostics deterministically, merge shard
   registries, and (when tracing) attach the per-function time
   distribution and one child span per worker domain. *)
let run_per_function env ~stage:sname ~funcs ~visit_of : Metrics.t =
  let ctx = env.ctx in
  let obs = ctx.Context.obs in
  (* the sequential prelude runs before the work list is computed *)
  let visit = visit_of env in
  let items = Array.of_list (funcs ctx) in
  let d = Pool.domains_for env.pool (Array.length items) in
  let shards = Array.init d (fun _ -> Context.new_shard ()) in
  let timing = Obs.is_enabled obs in
  let worker dom fb =
    let sh = shards.(dom) in
    if timing then begin
      let t0 = Unix.gettimeofday () in
      Quarantine.protect_sharded ctx sh ~stage:sname fb (visit sh);
      sh.Context.sh_times <- (Unix.gettimeofday () -. t0) :: sh.Context.sh_times
    end
    else Quarantine.protect_sharded ctx sh ~stage:sname fb (visit sh)
  in
  let dstats = Pool.run env.pool ~worker items in
  let shard_list = Array.to_list shards in
  (* raises Strict_error / Quarantine_limit exactly as a sequential run
     would, pinned to the first failing function in address order *)
  Quarantine.fold_shards ctx ~stage:sname shard_list;
  let pstats = Metrics.create () in
  List.iter
    (fun (sh : Context.shard) -> Metrics.merge ~into:pstats sh.Context.sh_stats)
    shard_list;
  if timing then begin
    (match
       List.concat_map (fun (sh : Context.shard) -> sh.Context.sh_times) shard_list
       |> List.sort compare
     with
    | [] -> ()
    | times ->
        let a = Array.of_list times in
        let n = Array.length a in
        let pct p = a.(min (n - 1) (int_of_float (p *. float_of_int n))) in
        Obs.set_attr obs "fn_n" (Json.Int n);
        Obs.set_attr obs "fn_p50_ms" (Json.Float (1000.0 *. pct 0.50));
        Obs.set_attr obs "fn_p99_ms" (Json.Float (1000.0 *. pct 0.99)));
    if List.length dstats > 1 then begin
      Obs.set_attr obs "jobs" (Json.Int (List.length dstats));
      List.iter
        (fun (s : Pool.stats) ->
          Obs.add_child obs
            (Printf.sprintf "domain-%d" s.Pool.st_domain)
            ~attrs:[ ("items", Json.Int s.Pool.st_items) ]
            ~dur_s:s.Pool.st_busy_s)
        dstats
    end
  end;
  pstats

let run_pass env (p : pass) =
  if p.p_enabled env.ctx.Context.opts then
    stage env p.p_name (fun () ->
        let pstats =
          match p.p_kind with
          | Whole_program f ->
              let m = Metrics.create () in
              f env m;
              m
          | Per_function { pf_funcs; pf_visit } ->
              run_per_function env ~stage:p.p_name ~funcs:pf_funcs
                ~visit_of:pf_visit
        in
        p.p_post env pstats;
        Metrics.merge ~into:env.ctx.Context.stats pstats;
        (* mirror into the run's obs registry, inside the span, so the
           span's metric-delta attribute and the manifest keep the same
           counter names the sequential pipeline produced *)
        let obs = env.ctx.Context.obs in
        List.iter
          (fun (k, v) -> Obs.incr obs ~by:v k)
          (List.sort compare (Metrics.counters pstats));
        List.iter (fun (k, v) -> Obs.set obs k v) (Metrics.gauges pstats))

let run env passes = List.iter (run_pass env) passes

(* ---- the registry ---- *)

(* Per-function descriptor: default work list is the simple functions. *)
let pf name enabled ?(funcs = Context.simple_funcs) ?(post = no_post) visit =
  {
    p_name = name;
    p_enabled = enabled;
    p_kind = Per_function { pf_funcs = funcs; pf_visit = visit };
    p_post = post;
  }

let wp name enabled ?(post = no_post) f =
  { p_name = name; p_enabled = enabled; p_kind = Whole_program f; p_post = post }

(* Figure 3 front half: disassembly/CFG construction, then profile
   attachment.  CFG build runs over every discovered function (simple or
   not: the non-simple fallback symbolization happens there too). *)
let build_cfg =
  pf "build-cfg"
    (fun _ -> true)
    ~funcs:Context.all_funcs
    (fun env ->
      Build.discover env.ctx;
      Build.build_fn env.ctx)
    ~post:(fun env p ->
      let funcs = Array.length env.ctx.Context.funcs in
      let simple = List.length (Context.simple_funcs env.ctx) in
      Metrics.incr p ~by:funcs "build.funcs";
      Metrics.incr p ~by:simple "build.simple_funcs";
      Context.logf env.ctx "build: %d functions, %d simple" funcs simple)

let match_profile =
  wp "match-profile"
    (fun _ -> true)
    (fun env m ->
      let zero =
        {
          Match_profile.matched_branches = 0;
          unmatched_branches = 0;
          matched_count = 0;
          unmatched_count = 0;
          stale_records = 0;
          unknown_funcs = 0;
        }
      in
      let s =
        Quarantine.pass env.ctx ~stage:"match-profile" ~default:zero (fun () ->
            let s = Match_profile.attach env.ctx env.prof in
            Match_profile.finalize env.ctx ~lbr:env.prof.Bolt_profile.Fdata.lbr
              ~trust_fallthrough:env.ctx.Context.opts.Opts.trust_fallthrough;
            s)
      in
      Metrics.incr m ~by:s.Match_profile.matched_branches "profile.matched_branches";
      Metrics.incr m ~by:s.Match_profile.unmatched_branches
        "profile.unmatched_branches";
      Metrics.incr m ~by:s.Match_profile.matched_count "profile.matched_count";
      Metrics.incr m ~by:s.Match_profile.unmatched_count "profile.unmatched_count";
      Metrics.incr m ~by:s.Match_profile.stale_records "profile.stale_records";
      Metrics.incr m ~by:s.Match_profile.unknown_funcs "profile.unknown_funcs";
      let total = s.matched_branches + s.unmatched_branches in
      Metrics.set m "profile.staleness_ratio"
        (if total = 0 then 0.0
         else float_of_int s.stale_records /. float_of_int total))

let pre_passes = [ build_cfg; match_profile ]

let icf_body env m =
  let r =
    Quarantine.pass env.ctx ~stage:"icf"
      ~default:{ Icf.folded = 0; bytes_saved = 0; candidates = 0; rounds = 0 }
      (fun () -> Icf.run env.ctx)
  in
  Metrics.incr m ~by:r.Icf.folded "pass.icf.folded";
  Metrics.incr m ~by:r.Icf.bytes_saved "pass.icf.bytes_saved";
  Metrics.incr m ~by:r.Icf.candidates "pass.icf.candidates";
  Metrics.incr m ~by:r.Icf.rounds "pass.icf.rounds"

let log_count env p fmt key = Context.logf env.ctx fmt (Metrics.counter p key)

(* [log_count] for a counter the registry keeps even at 0. *)
let log_count0 env p fmt key =
  Metrics.incr p ~by:0 key;
  log_count env p fmt key

(* Table 1, in the paper's order.  fixup-branches (pass 12) happens
   structurally at emission; reorder-functions runs even under Rf_none
   because it also computes the identity function layout. *)
let table1 =
  [
    pf "strip-rep-ret"
      (fun o -> o.Opts.strip_rep_ret)
      (fun env -> Passes_simple.strip_rep_ret_fn env.ctx)
      ~post:(fun env p ->
        log_count env p "strip-rep-ret: %d returns stripped"
          "pass.strip-rep-ret.stripped");
    wp "icf" (fun o -> o.Opts.icf) icf_body;
    pf "icp"
      (fun o -> o.Opts.icp)
      (fun env -> Icp.promote_fn env.ctx)
      ~post:(fun env p ->
        log_count0 env p "icp: %d indirect calls promoted" "pass.icp.promoted");
    pf "peepholes"
      (fun o -> o.Opts.peepholes)
      (fun env -> Passes_simple.peepholes_fn env.ctx)
      ~post:(fun env p ->
        Context.logf env.ctx "peepholes: %d removed, %d shortened"
          (Metrics.counter p "pass.peepholes.removed")
          (Metrics.counter p "pass.peepholes.shortened"));
    pf "inline-small"
      (fun o -> o.Opts.inline_small)
      (fun env -> Inline_small.inline_fn env.ctx)
      ~post:(fun env p ->
        log_count0 env p "inline-small: %d call sites inlined"
          "pass.inline-small.inlined");
    pf "simplify-ro-loads"
      (fun o -> o.Opts.simplify_ro_loads)
      (fun env -> Passes_simple.simplify_ro_loads_fn env.ctx)
      ~post:(fun env p ->
        Context.logf env.ctx "simplify-ro-loads: %d converted, %d aborted (size)"
          (Metrics.counter p "pass.simplify-ro-loads.converted")
          (Metrics.counter p "pass.simplify-ro-loads.aborted"));
    wp "icf-2" (fun o -> o.Opts.icf) icf_body;
    pf "plt"
      (fun o -> o.Opts.plt)
      (fun env -> Passes_simple.plt_fn env.ctx)
      ~post:(fun env p ->
        log_count env p "plt: %d calls de-indirected" "pass.plt.deindirected");
    pf "reorder-bbs"
      (fun o -> o.Opts.reorder_blocks <> Opts.Rb_none)
      (fun env -> Layout_bbs.reorder_fn env.ctx)
      ~post:(fun env p ->
        Context.logf env.ctx "reorder-bbs(%s): %d functions reordered"
          (Layout_bbs.algo_name env.ctx.Context.opts.Opts.reorder_blocks)
          (Metrics.counter p "pass.reorder-bbs.reordered"));
    pf "split-functions"
      (fun o -> o.Opts.split_functions <> Opts.Split_none)
      (fun env -> Layout_bbs.split_fn env.ctx)
      ~post:(fun env p ->
        log_count env p "split-functions: %d blocks moved to cold fragments"
          "pass.split-functions.blocks_split");
    pf "peepholes-2"
      (fun o -> o.Opts.peepholes)
      (fun env -> Passes_simple.peepholes_fn env.ctx)
      ~post:(fun env p ->
        Context.logf env.ctx "peepholes: %d removed, %d shortened"
          (Metrics.counter p "pass.peepholes.removed")
          (Metrics.counter p "pass.peepholes.shortened"));
    pf "uce"
      (fun o -> o.Opts.uce)
      (fun env -> Passes_simple.uce_fn env.ctx)
      ~post:(fun env p ->
        log_count env p "uce: %d unreachable blocks removed"
          "pass.uce.blocks_removed");
    (* fixup-branches happens structurally at emission *)
    wp "reorder-functions"
      (fun _ -> true)
      (fun env _m ->
        env.ctx.Context.func_layout <-
          Quarantine.pass env.ctx ~stage:"reorder-functions" ~default:None
            (fun () -> Some (Reorder_funcs.run env.ctx env.prof)));
    pf "sctc"
      (fun o -> o.Opts.sctc)
      (fun env -> Passes_simple.sctc_fn env.ctx)
      ~post:(fun env p ->
        log_count env p "sctc: %d branches simplified" "pass.sctc.simplified");
    pf "frame-opts"
      (fun o -> o.Opts.frame_opts)
      (fun env -> Frame_opts.frame_opts_fn env.ctx)
      ~post:(fun env p ->
        log_count env p "frame-opts: %d dead register saves removed"
          "pass.frame-opts.saves_removed");
    pf "shrink-wrapping"
      (fun o -> o.Opts.shrink_wrapping)
      (fun env -> Frame_opts.shrink_wrapping_fn env.ctx)
      ~post:(fun env p ->
        log_count env p "shrink-wrapping: %d saves moved to cold blocks"
          "pass.shrink-wrapping.moved");
  ]

let find name = List.find (fun p -> p.p_name = name) (pre_passes @ table1)
