(* Pass 5: inline small functions.

   As the paper notes, BOLT's inliner is deliberately limited — the
   compiler already took the big opportunities; what remains is typically
   exposed by more accurate profile data or by indirect-call promotion.
   Eligible callees are single-block leaf functions with no frame, no
   stack traffic and no exception behaviour: their body (minus the
   return) can be spliced verbatim over the call site. *)

open Bolt_isa
open Bfunc

let eligible_body (fb : Bfunc.t) ~size_limit =
  if not fb.simple then None
  else
    match fb.layout with
    | [| l |] -> (
        let b = fb.blocks.(l) in
        match b.term with
        | T_stop -> (
            match List.rev b.insns with
            | { op = Insn.Ret | Insn.Repz_ret; _ } :: rev_body ->
                let body = List.rev rev_body in
                let ok =
                  List.for_all
                    (fun (i : minsn) ->
                      match i.op with
                      | Insn.Push _ | Insn.Pop _ | Insn.Call _ | Insn.Call_ind _
                      | Insn.Call_mem _ | Insn.Throw | Insn.Jmp_ind _ | Insn.Jmp_mem _
                      | Insn.Ret | Insn.Repz_ret | Insn.Halt ->
                          false
                      | op ->
                          (* no stack-pointer arithmetic either *)
                          not
                            (List.exists (Reg.equal Reg.sp) (Insn.defs op))
                          && not (List.exists (Reg.equal Reg.sp) (Insn.uses op)))
                    body
                in
                let bytes =
                  List.fold_left (fun a (i : minsn) -> a + Insn.size i.op) 0 body
                in
                if ok && bytes <= size_limit then Some body else None
            | _ -> None)
        | _ -> None)
    | _ -> None

(* Largest body, in bytes, worth inlining. *)
let size_limit = 32

(* The pass: its prelude collects the eligible bodies from every
   function; the visitor splices them over [fb]'s profiled call sites. *)
let inline_fn ctx =
  let bodies = Hashtbl.create 32 in
  Context.iter_funcs ctx (fun fb ->
      if fb.folded_into = None then
        match eligible_body fb ~size_limit with
        | Some body -> Hashtbl.replace bodies fb.fb_name body
        | None -> ());
  (* The compiler already inlined the intra-module candidates; what is
     left for BOLT is mostly cross-module calls behind PLT stubs — the
     "cross-module nature" opportunity the paper credits BOLT's inliner
     with.  Resolve stubs to their final targets here. *)
  let resolve callee = Option.value ~default:callee (Context.plt_target ctx callee) in
  fun sh (fb : Bfunc.t) ->
    iter_layout fb (fun _ b ->
        if b.ecount > 0 then
          b.insns <-
            List.concat_map
              (fun (i : minsn) ->
                match i.op with
                | Insn.Call (Insn.Sym (callee, 0))
                  when resolve callee <> fb.fb_name
                       && Hashtbl.mem bodies (resolve callee) ->
                    Context.sh_incr sh "pass.inline-small.inlined";
                    fb.touched <- true;
                    List.map
                      (fun (bi : minsn) -> { bi with m_off = -1; loc = bi.loc })
                      (Hashtbl.find bodies (resolve callee))
                | _ -> [ i ])
              b.insns)
