(* Passes 15 & 16: frame optimizations and shrink wrapping.

   frame-opts removes saves of callee-saved registers that nothing in the
   function touches any more — opportunities typically created by BOLT's
   own earlier passes (inlining, ICP, load simplification).

   shrink-wrapping moves a save/restore pair next to its uses when the
   profile shows the uses are cold: the conservative prologue push is
   deleted and re-materialised inside the cold block.  The restrictions
   (uses confined to one block, no calls or throws in it, the block's
   final control transfer must not consume the register) keep the
   transformation unconditionally sound with our CFI scheme: the emitter
   regenerates frame state per block, so the unwinder keeps working. *)

open Bolt_isa
open Bolt_obj.Types
open Bfunc

(* The prologue save plan of a function: pushes of callee-saved registers
   in the entry block, in order, with the locals size. *)
type plan = {
  locals : int;
  saves : (Reg.t * int) list; (* reg, slot offset below fp *)
}

let prologue_plan (fb : Bfunc.t) : plan option =
  if Array.length fb.blocks = 0 then None
  else
    let b = fb.blocks.(0) in
    let locals = ref 0 in
    let saves = ref [] in
    let established = ref false in
    List.iter
      (fun (i : minsn) ->
        List.iter
          (fun op ->
            match op with
            | Cfi_establish -> established := true
            | Cfi_def_locals n -> locals := n
            | Cfi_save (r, slot) -> saves := (r, slot) :: !saves
            | _ -> ())
          i.cfi_after)
      b.insns;
    if !established then Some { locals = !locals; saves = List.rev !saves } else None

(* Remove the push of [r] from the entry block and every pop of [r] in
   return blocks; fix the CFI annotations, including the slot shift of
   registers pushed after [r]. *)
let remove_save (fb : Bfunc.t) (r : Reg.t) (plan : plan) =
  let slot_of_r = List.assoc r plan.saves in
  let fix_cfi ops =
    List.filter_map
      (fun op ->
        match op with
        | Cfi_save (r', _) when Reg.equal r' r -> None
        | Cfi_restore r' when Reg.equal r' r -> None
        | Cfi_save (r', slot) when slot > slot_of_r -> Some (Cfi_save (r', slot - 8))
        | op -> Some op)
      ops
  in
  iter_layout fb (fun _ b ->
      b.insns <-
        List.filter_map
          (fun (i : minsn) ->
            let i = { i with cfi_after = fix_cfi i.cfi_after } in
            match i.op with
            | Insn.Push r' when Reg.equal r' r ->
                (* keep this instruction's CFI ops by reattaching them *)
                if i.cfi_after = [] then None
                else Some { i with op = Insn.Nop 1 }
            | Insn.Pop r' when Reg.equal r' r ->
                if i.cfi_after = [] then None else Some { i with op = Insn.Nop 1 }
            | _ -> Some i)
          b.insns;
      (* shift the recorded entry state too *)
      let st = b.cfi_entry in
      b.cfi_entry <-
        {
          st with
          cfa_saved =
            List.filter_map
              (fun (r', slot) ->
                if Reg.equal r' r then None
                else if slot > slot_of_r then Some (r', slot - 8)
                else Some (r', slot))
              st.cfa_saved;
        })

(* The frame-opts pass's visitor: drop each dead callee-saved save. *)
let frame_opts_fn _ctx sh (fb : Bfunc.t) =
  match prologue_plan fb with
  | None -> ()
  | Some plan ->
      List.iter
        (fun (r, _) ->
          if (not (Reg.equal r Reg.fp)) && not (Dataflow.references_reg fb r) then begin
            remove_save fb r plan;
            Context.sh_incr sh "pass.frame-opts.saves_removed";
            fb.touched <- true
          end)
        plan.saves

(* ---- shrink wrapping ---- *)

let block_has_call_or_throw (b : bb) =
  List.exists
    (fun (i : minsn) ->
      Insn.is_call i.op || i.op = Insn.Throw)
    b.insns

let final_transfer_uses (b : bb) r =
  match List.rev b.insns with
  | ({ op = Insn.Jmp_ind r'; _ } : minsn) :: _ -> Reg.equal r r'
  | _ -> false

let shrink_wrapping_fn _ctx sh (fb : Bfunc.t) =
  if has_profile fb && fb.exec_count > 0 then
    match prologue_plan fb with
    | None -> ()
    | Some plan ->
        List.iter
          (fun (r, _) ->
            if not (Reg.equal r Reg.fp) then
              match Dataflow.blocks_referencing fb r with
              | [ bl ] when bl <> 0 -> (
                  let b = fb.blocks.(bl) in
                  if
                    b.ecount = 0
                    && (not b.is_lp)
                    && (not (block_has_call_or_throw b))
                    && not (final_transfer_uses b r)
                  then begin
                    (* recompute the plan: earlier removals shift slots *)
                    match prologue_plan fb with
                    | Some plan' when List.mem_assoc r plan'.saves ->
                        remove_save fb r plan';
                        let nsaved =
                          List.length plan'.saves - 1 (* after removal *)
                        in
                        let slot = plan'.locals + (8 * nsaved) + 8 in
                        let push =
                          {
                            op = Insn.Push r;
                            lp = None;
                            loc = None;
                            cfi_after = [ Cfi_save (r, slot) ];
                            m_off = -1;
                          }
                        in
                        let pop =
                          {
                            op = Insn.Pop r;
                            lp = None;
                            loc = None;
                            cfi_after = [ Cfi_restore r ];
                            m_off = -1;
                          }
                        in
                        (* pop goes before a trailing control transfer *)
                        let rec insert_pop acc = function
                          | [ (last : minsn) ] when Insn.is_terminator last.op ->
                              List.rev acc @ [ pop; last ]
                          | [ last ] -> List.rev acc @ [ last; pop ]
                          | [] -> [ pop ]
                          | x :: rest -> insert_pop (x :: acc) rest
                        in
                        b.insns <- push :: insert_pop [] b.insns;
                        Context.sh_incr sh "pass.shrink-wrapping.moved";
                        fb.touched <- true
                    | _ -> ()
                  end)
              | _ -> ())
          plan.saves
