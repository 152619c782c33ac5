(* The small transformation passes of Table 1: strip-rep-ret, peepholes,
   unreachable-code elimination, simplification of conditional tail calls,
   read-only load simplification and PLT de-indirection.

   Each pass is a [*_fn] visitor
   ([Context.t -> Context.shard -> Bfunc.t -> unit]) that transforms one
   function, records counts on the worker's shard and sets the
   function's [touched] flag.  Its
   [Passman] descriptor is the only way to run it: the pass manager fans
   the visitor out over domains and logs the counts.  The contract is
   that a visitor mutates nothing but its own [Bfunc.t] and shard
   (shared context state is read-only). *)

open Bolt_isa
open Bfunc

(* Pass 1: strip the legacy-AMD repz prefix from returns (2 bytes -> 1). *)
let strip_rep_ret_fn _ctx sh (fb : Bfunc.t) =
  iter_layout fb (fun _ b ->
      List.iter
        (fun (i : minsn) ->
          if i.op = Insn.Repz_ret then begin
            i.op <- Insn.Ret;
            Context.sh_incr sh "pass.strip-rep-ret.stripped";
            fb.touched <- true
          end)
        b.insns)

(* Passes 4/10: peephole simplifications. *)
let peepholes_fn _ctx sh (fb : Bfunc.t) =
  iter_layout fb (fun _ b ->
      let keep =
        List.filter
          (fun (i : minsn) ->
            match i.op with
            | Insn.Mov_rr (d, s) when Reg.equal d s ->
                Context.sh_incr sh "pass.peepholes.removed";
                fb.touched <- true;
                false
            | _ -> true)
          b.insns
      in
      List.iter
        (fun (i : minsn) ->
          match i.op with
          | Insn.Alu_ri (Insn.Cmp, r, Insn.Imm 0) ->
              (* cmp r, 0 (6 bytes) -> test r, r (2 bytes) *)
              i.op <- Insn.Alu_rr (Insn.Test, r, r);
              Context.sh_incr sh "pass.peepholes.shortened";
              fb.touched <- true
          | _ -> ())
        keep;
      b.insns <- keep)

(* Pass 11: eliminate unreachable basic blocks: mark what block 0
   reaches through terminators, jump tables and landing pads, and keep
   only those in the layout.  The block table keeps the dead blocks, and
   their edges: [has_profile] does not change. *)
let uce_fn _ctx sh (fb : Bfunc.t) =
  let reach = Bytes.make (Array.length fb.blocks) '\000' in
  let rec go l =
    if valid fb l && Bytes.get reach l = '\000' then begin
      Bytes.set reach l '\001';
      let b = fb.blocks.(l) in
      List.iter go (successors fb b);
      List.iter (fun (i : minsn) -> Option.iter go i.lp) b.insns
    end
  in
  if Array.length fb.blocks > 0 then go 0;
  let live = List.filter (fun l -> Bytes.get reach l <> '\000') (Array.to_list fb.layout) in
  let removed = Array.length fb.layout - List.length live in
  if removed > 0 then begin
    Context.sh_incr sh ~by:removed "pass.uce.blocks_removed";
    fb.touched <- true;
    fb.layout <- Array.of_list live
  end

(* Pass 14: simplify conditional tail calls — a conditional branch to a
   block that only forwards (an empty block jumping elsewhere, or a lone
   direct tail call) is retargeted, removing a jump from the hot path. *)
let sctc_fn _ctx sh (fb : Bfunc.t) =
  iter_layout fb (fun l b ->
      match b.term with
      | T_cond (c, taken, fall) when taken <> fall -> (
          let tb = fb.blocks.(taken) in
          if tb.is_lp then ()
          else
            match (tb.insns, tb.term) with
            | [], T_jump t2 when t2 <> taken ->
                let cnt = edge_count b taken in
                b.term <- T_cond (c, t2, fall);
                add_edge_count b t2 cnt 0;
                Context.sh_incr sh "pass.sctc.simplified";
                fb.touched <- true
            | [ { op = Insn.Jmp (Insn.Sym (fn, 0), _); _ } ], T_stop ->
                (* a lone direct tail call: jcc straight to the callee *)
                b.term <- T_condtail (c, fn, fall);
                Context.sh_incr sh "pass.sctc.simplified";
                fb.touched <- true
            | _ -> ())
      | T_jump t -> (
          let tb = fb.blocks.(t) in
          match tb.term with
          | T_jump t2 when tb.insns = [] && (not tb.is_lp) && t <> l && t2 <> t ->
              let cnt = edge_count b t in
              b.term <- T_jump t2;
              add_edge_count b t2 cnt 0;
              Context.sh_incr sh "pass.sctc.simplified";
              fb.touched <- true
          | _ -> ())
      | _ -> ())

(* Pass 6: loads from statically-known read-only cells become immediate
   moves, unless the new encoding would be larger (the paper's policy).
   The jump-table cell index is the pass's sequential prelude: built once
   from every simple function, then read-only by the workers. *)
let simplify_ro_loads_fn ctx =
  let jt_cells = Hashtbl.create 64 in
  List.iter
    (fun fb ->
      Array.iter
        (fun (jt : jt) ->
          Array.iteri
            (fun k _ -> Hashtbl.replace jt_cells (jt.jt_addr + (8 * k)) ())
            jt.jt_targets)
        fb.Bfunc.jts)
    (Context.simple_funcs ctx);
  fun sh (fb : Bfunc.t) ->
    iter_layout fb (fun _ b ->
        List.iter
          (fun (i : minsn) ->
            match i.op with
            | Insn.Load_abs (r, Insn.Imm a)
              when Context.in_section ctx.Context.rodata a
                   && not (Hashtbl.mem jt_cells a) -> (
                match Context.section_value ctx ctx.Context.rodata a with
                | Some v ->
                    if Codec.fits_i32 v then begin
                      (* same 6-byte encoding: a pure win *)
                      i.op <- Insn.Mov_ri (r, Insn.Imm v, Insn.I32);
                      Context.sh_incr sh "pass.simplify-ro-loads.converted";
                      fb.touched <- true
                    end
                    else
                      (* movabs would be 10 > 6 bytes *)
                      Context.sh_incr sh "pass.simplify-ro-loads.aborted"
                | None -> ())
            | _ -> ())
          b.insns)

(* Pass 8: remove PLT indirection from calls whose stub target is known. *)
let plt_fn ctx sh (fb : Bfunc.t) =
  iter_layout fb (fun _ b ->
      List.iter
        (fun (i : minsn) ->
          match i.op with
          | Insn.Call (Insn.Sym (s, 0)) -> (
              match Context.plt_target ctx s with
              | Some target ->
                  i.op <- Insn.Call (Insn.Sym (target, 0));
                  Context.sh_incr sh "pass.plt.deindirected";
                  fb.touched <- true
              | None -> ())
          | _ -> ())
        b.insns)
