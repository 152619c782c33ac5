(* Emit rewritten functions: CFG fragments back to machine code.

   This is the "emit and link functions" stage of Figure 3.  Each
   function's hot fragment (and optional cold fragment) is lowered to an
   assembler body:

   - terminators are materialised against the final layout — branch
     polarity is chosen so the fall-through is the layout successor, and
     unnecessary jumps disappear (fixup-branches, pass 12);
   - branch relaxation picks 2-byte encodings where displacements allow;
   - frame information is regenerated: whenever the linear frame state at
     a block boundary differs from the state the unwinder would replay, a
     set-state CFI record is inserted (§3.4);
   - exception ranges are regenerated from the instruction annotations;
     cross-fragment landing pads stay symbolic until addresses are known;
   - cross-fragment and cross-function references become relocations that
     the rewriter patches once the new layout is final. *)

open Bolt_isa
open Bolt_asm.Asm
open Bfunc

(* Globally-unique symbol for a block, used for cross-fragment refs. *)
let xref fn l = fn ^ "/" ^ l

type fragment = {
  fr_name : string; (* symbol: fn or fn.cold *)
  fr_func : string; (* owning function *)
  fr_out : fout;
  fr_labels : (string * int) list; (* block label -> offset *)
  fr_lsda_sym : (int * int * string) list;
  fr_has_fde : bool;
}

(* Lower one fragment (the ids of its blocks in final order) to
   assembler items: the body is the first [n] items of the returned
   array.  Its blocks are the hot ones, or with [cold] the cold ones. *)
let body_of_fragment (fb : Bfunc.t) ~cold
    ~(first_state : Bolt_obj.Types.cfi_state option) (blocks : int list) :
    aitem array * int =
  let items = ref (Array.make 256 (A_align 0)) and n = ref 0 in
  let push it =
    if !n = Array.length !items then begin
      (* a constant filler: a young one would force a minor collection *)
      let a = Array.make (2 * !n) (A_align 0) in
      Array.blit !items 0 a 0 !n;
      items := a
    end;
    Array.unsafe_set !items !n it;
    incr n
  in
  let ref_of l =
    let b = fb.blocks.(l) in
    if b.cold = cold then Insn.Sym (b.bl, 0) else Insn.Sym (xref fb.fb_name b.bl, 0)
  in
  (* the frame state the unwinder replays here; [known] is false only
     before the first block of a fragment with no [first_state] *)
  let cur = ref (Option.value first_state ~default:Bolt_obj.Types.initial_cfi_state) in
  let known = ref (Option.is_some first_state) in
  (* the line of the last [A_loc] pushed: repeating it changes nothing *)
  let last_loc = ref None in
  let rec emit_blocks = function
    | [] -> ()
    | l :: rest ->
        let b = fb.blocks.(l) in
        push (A_label b.bl);
        (* regenerate frame info at the boundary *)
        let differs =
          if !known then not (Bolt_obj.Types.cfi_state_equal !cur b.cfi_entry)
          else b.cfi_entry <> Bolt_obj.Types.initial_cfi_state
        in
        if differs then push (A_cfi (Bolt_obj.Types.Cfi_set_state b.cfi_entry));
        known := true;
        cur := b.cfi_entry;
        List.iter
          (fun (i : minsn) ->
            (match i.loc with
            | Some (f, ln) when i.loc != !last_loc ->
                push (A_loc (f, ln));
                last_loc := i.loc
            | _ -> ());
            (match i.lp with
            | Some pad when valid fb pad ->
                (* landing-pad annotations keep their block symbol; the
                   rewriter resolves pads across fragments *)
                push (A_insn_lp (i.op, fb.blocks.(pad).bl))
            | _ ->
                (* a pad outside the function resolves nowhere: the
                   rewriter would drop its range anyway *)
                push (A_insn i.op));
            match i.cfi_after with
            | [] -> ()
            | ops ->
                cur := List.fold_left Bolt_obj.Types.cfi_apply !cur ops;
                List.iter (fun op -> push (A_cfi op)) ops)
          b.insns;
        let is_next t = match rest with n :: _ -> n = t | [] -> false in
        (match b.term with
        | T_jump t -> if not (is_next t) then push (A_insn (Insn.Jmp (ref_of t, Insn.W8)))
        | T_cond (c, taken, fall) ->
            if is_next fall then push (A_insn (Insn.Jcc (c, ref_of taken, Insn.W8)))
            else if is_next taken then
              push (A_insn (Insn.Jcc (Cond.invert c, ref_of fall, Insn.W8)))
            else begin
              push (A_insn (Insn.Jcc (c, ref_of taken, Insn.W8)));
              push (A_insn (Insn.Jmp (ref_of fall, Insn.W8)))
            end
        | T_condtail (c, fn, fall) ->
            push (A_insn (Insn.Jcc (c, Insn.Sym (fn, 0), Insn.W32)));
            if not (is_next fall) then push (A_insn (Insn.Jmp (ref_of fall, Insn.W8)))
        | T_indirect _ | T_stop -> ());
        emit_blocks rest
  in
  emit_blocks blocks;
  (!items, !n)

(* Emit a simple function: hot fragment plus optional cold fragment. *)
let emit_simple (fb : Bfunc.t) : fragment list =
  let hot = hot_layout fb in
  let cold = cold_layout fb in
  let mk name blocks ~cold ~first_state =
    let items, n = body_of_fragment fb ~cold ~first_state blocks in
    let out = assemble_items ~base:0 ~name items n in
    {
      fr_name = name;
      fr_func = fb.fb_name;
      fr_out = out;
      fr_labels = out.fo_labels;
      fr_lsda_sym = out.fo_lsda_sym;
      fr_has_fde = true;
    }
  in
  let hot_frag =
    mk fb.fb_name hot ~cold:false ~first_state:(Some Bolt_obj.Types.initial_cfi_state)
  in
  if cold = [] then [ hot_frag ]
  else
    let cold_frag = mk (fb.fb_name ^ ".cold") cold ~cold:true ~first_state:None in
    [ hot_frag; cold_frag ]

(* Emit a non-simple function byte-identically (modulo symbolized
   references, which the rewriter re-resolves).  Its linear code carries
   no landing pads: the function keeps its input exception table. *)
let emit_raw (fb : Bfunc.t) : fragment =
  let items = Array.of_list (List.map (fun (i : minsn) -> A_insn i.op) fb.raw_insns) in
  let out = assemble_items ~base:0 ~name:fb.fb_name items (Array.length items) in
  {
    fr_name = fb.fb_name;
    fr_func = fb.fb_name;
    fr_out = out;
    fr_labels = out.fo_labels;
    fr_lsda_sym = [];
    fr_has_fde = false;
  }
