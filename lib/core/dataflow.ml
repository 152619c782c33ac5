(* Register references over a function's CFG: which blocks read or
   write a register, the question BOLT's frame optimizations (§4:
   frame-opts and shrink-wrapping) ask before moving or dropping a
   callee-saved spill.

   Register sets are int bitmasks (16 registers).  Calls clobber the
   caller-saved set and are assumed to read all argument registers; a
   return reads r0 and every callee-saved register (the caller expects
   them preserved), which keeps the answer conservative. *)

open Bolt_isa
open Bfunc

let mask_of regs = List.fold_left (fun m r -> m lor (1 lsl Reg.to_int r)) 0 regs

let caller_saved_mask = mask_of Reg.caller_saved
let callee_saved_mask = mask_of Reg.callee_saved
let args_mask = mask_of Reg.args
let ret_live_mask = (1 lsl Reg.to_int Reg.r0) lor callee_saved_mask lor (1 lsl 15)

let insn_uses (i : Insn.t) =
  match i with
  | Insn.Call _ | Insn.Call_mem _ -> args_mask
  | Insn.Call_ind r -> args_mask lor (1 lsl Reg.to_int r)
  | Insn.Ret | Insn.Repz_ret -> ret_live_mask
  | Insn.Throw -> 1 lsl Reg.to_int Reg.r0
  | _ -> mask_of (Insn.uses i)

let insn_defs (i : Insn.t) =
  match i with
  | Insn.Call _ | Insn.Call_mem _ | Insn.Call_ind _ -> caller_saved_mask
  | _ -> mask_of (Insn.defs i)

(* Does block [b] reference [r] anywhere outside prologue pushes and
   epilogue pops of that same register? *)
let block_references r (b : bb) =
  let rmask = 1 lsl Reg.to_int r in
  List.exists
    (fun (i : minsn) ->
      match i.op with
      | Insn.Push r' | Insn.Pop r' when Reg.equal r' r -> false
      | op -> insn_uses op land rmask <> 0 || insn_defs op land rmask <> 0)
    b.insns

let blocks_referencing (fb : Bfunc.t) r =
  List.filter (fun l -> block_references r fb.blocks.(l)) (Array.to_list fb.layout)

(* [blocks_referencing fb r <> []], without scanning past the first
   referencing block: frame-opts asks it for every saved register. *)
let references_reg (fb : Bfunc.t) r =
  Array.exists (fun l -> block_references r fb.blocks.(l)) fb.layout
