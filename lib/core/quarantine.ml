(* Per-function quarantine: the exception barrier around every
   optimization pass and the emitter.

   BOLT's conservativeness guarantee (§3.3) is per function: a function
   the tool cannot handle is left alone, everything else is still
   optimized.  This module extends that guarantee from "cannot analyze"
   to "crashed while transforming": a pass that raises on one function
   demotes that function back to its verbatim input bytes — exactly the
   non-simple treatment — records a diagnostic, and the run continues.

   Strictness is the inverse switch: with [Opts.strict] any demotion is a
   hard [Diag.Strict_error]; with [Opts.max_quarantine] a badly corrupted
   input that demotes too many functions is rejected wholesale.

   This module holds the barriers only.  [Passman]'s executor runs
   every per-function pass through [protect_sharded] and
   [fold_shards]; whole-program passes use [pass]. *)

(* Exceptions that must never be swallowed by a barrier: deliberate
   aborts, resource exhaustion, and user interrupts. *)
let fatal = function
  | Diag.Strict_error _ | Diag.Quarantine_limit _ -> true
  | Out_of_memory | Stack_overflow | Sys.Break -> true
  | _ -> false

(* Demote [fb] to non-simple and rebuild its verbatim representation from
   the input bytes.  The CFG may be half-mutated by the failing pass, so
   everything derived from it is dropped; [fb.jts] is kept because the
   rewriter still needs the table addresses to repoint the cells at the
   function's final location.

   This half only mutates [fb] itself, so a worker domain can run it for
   a function it owns; the run-level bookkeeping ([record]) is deferred
   to the join, where verdicts fold in stable order. *)
let demote_quiet ctx ~stage (fb : Bfunc.t) =
  Bfunc.mark_non_simple fb (Printf.sprintf "quarantined in %s" stage);
  Bfunc.clear_cfg fb;
  Build.redecode ctx fb

(* Run-level half of a demotion: diagnostics, the trace event, and the
   strict / quarantine-budget escalation.  Single-domain only. *)
let record ctx ~stage (fb : Bfunc.t) msg =
  Diag.quarantine ctx.Context.diag ~stage ~func:fb.Bfunc.fb_name msg;
  Bolt_obs.Obs.event ctx.Context.obs "quarantine"
    ~attrs:
      [
        ("func", Bolt_obs.Json.String fb.Bfunc.fb_name);
        ("stage", Bolt_obs.Json.String stage);
      ];
  if ctx.Context.opts.Opts.strict then
    raise
      (Diag.Strict_error
         (Printf.sprintf "%s: function %s failed: %s" stage fb.Bfunc.fb_name msg));
  match ctx.Context.opts.Opts.max_quarantine with
  | Some limit when Diag.quarantined_count ctx.Context.diag > limit ->
      raise (Diag.Quarantine_limit (Diag.quarantined_count ctx.Context.diag))
  | _ -> ()

let demote ctx ~stage (fb : Bfunc.t) msg =
  demote_quiet ctx ~stage fb;
  record ctx ~stage fb msg

(* The barrier for worker domains: any non-fatal exception from [f fb]
   demotes [fb] in place (a worker owns its function), and the verdict
   is parked on the shard and replayed by [fold_shards] at the join. *)
let protect_sharded ctx (sh : Context.shard) ~stage (fb : Bfunc.t) f =
  try f fb
  with exn when not (fatal exn) ->
    demote_quiet ctx ~stage fb;
    sh.Context.sh_verdicts <- (fb, Printexc.to_string exn) :: sh.Context.sh_verdicts

(* Fold per-domain shards back into the run, deterministically: replay
   diagnostics, then quarantine verdicts, each sorted by the function's
   original address order (by id) — the order a sequential run would
   have hit them in.  [record] re-raises Strict_error / Quarantine_limit
   here, so a fatal verdict surfaces with the same exception (and obolt
   exit code) at any -j, pinned to the failing function with the lowest
   id. *)
let fold_shards ctx ~stage (shards : Context.shard list) =
  Context.apply_shard_diags ctx shards;
  if List.exists (fun sh -> sh.Context.sh_verdicts <> []) shards then
    shards
    |> List.concat_map (fun sh -> List.rev sh.Context.sh_verdicts)
    |> List.sort (fun ((a : Bfunc.t), _) ((b : Bfunc.t), _) ->
           compare a.Bfunc.fb_id b.Bfunc.fb_id)
    |> List.iter (fun (fb, msg) -> record ctx ~stage fb msg)

(* Pass-level barrier for whole-program passes (ICF, function reordering)
   whose failure cannot be pinned on one function: skip the pass, keep
   the run. *)
let pass ctx ~stage ~default f =
  try f ()
  with exn when not (fatal exn) ->
    Diag.errorf ctx.Context.diag ~stage "pass failed (%s); skipped"
      (Printexc.to_string exn);
    Bolt_obs.Obs.event ctx.Context.obs "pass-skipped"
      ~attrs:[ ("stage", Bolt_obs.Json.String stage) ];
    if ctx.Context.opts.Opts.strict then
      raise
        (Diag.Strict_error
           (Printf.sprintf "%s: pass failed: %s" stage (Printexc.to_string exn)));
    default
