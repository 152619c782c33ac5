(* Pass 3: indirect call promotion.

   When the profile shows one dominant target at an indirect call site,
   the call is rewritten as

       cmp  r, @target        ; address of the hot target
       jne  .Licp_indirect
     .Licp_direct:   call target      ; direct: predictable, inlinable
                     jmp  .Licp_cont
     .Licp_indirect: call *r          ; the cold remainder
                     jmp  .Licp_cont
     .Licp_cont:     ...rest of the original block

   The comparison operand stays symbolic so the rewritten binary keeps
   working after function reordering moves the target. *)

open Bolt_isa
open Bfunc

(* [fb]'s call sites as the profile recorded them: call-site offset ->
   (target, count) for each call record from it, newest first. *)
let sites ctx (fb : Bfunc.t) =
  let h = Hashtbl.create 8 in
  (match ctx.Context.profile with
  | Some v when fb.fb_id >= 0 ->
      List.iter
        (fun (b : Bolt_profile.Fdata.branch) ->
          Hashtbl.replace h b.br_from_off
            ((b.br_to_func, Bolt_profile.Fdata.clamp_int b.br_count)
            :: (try Hashtbl.find h b.br_from_off with Not_found -> [])))
        (List.rev v.Profile_view.sites.(fb.fb_id))
  | _ -> ());
  h

(* Promote when the top target takes at least this percentage of the calls. *)
let threshold_pct = 66

(* The pass's visitor: promote [fb]'s dominant indirect calls.  It reads
   only [fb] and the profile view. *)
let promote_fn ctx sh (fb : Bfunc.t) =
  (* only a function holding an indirect call reads its sites *)
  let sites = lazy (sites ctx fb) in
  (* collect candidate (block, insn) sites first: we mutate the CFG *)
  let candidates = ref [] in
  iter_layout fb (fun l b ->
      List.iter
        (fun (i : minsn) ->
          match i.op with
          | Insn.Call_ind _ when i.m_off >= 0 -> (
              match Hashtbl.find_opt (Lazy.force sites) i.m_off with
              | Some targets ->
                  let total = List.fold_left (fun a (_, c) -> a + c) 0 targets in
                  let merged = Hashtbl.create 8 in
                  List.iter
                    (fun (t, c) ->
                      Hashtbl.replace merged t
                        (c + try Hashtbl.find merged t with Not_found -> 0))
                    targets;
                  let best =
                    Hashtbl.fold
                      (fun t c acc ->
                        match acc with
                        | Some (_, bc) when bc >= c -> acc
                        | _ -> Some (t, c))
                      merged None
                  in
                  (match best with
                  | Some (t, c)
                    when total > 0
                         && c * 100 >= threshold_pct * total
                         && Context.func ctx t <> None ->
                      candidates := (l, i.m_off, t, c, total) :: !candidates
                  | _ -> ())
              | None -> ())
          | _ -> ())
        b.insns);
  List.iter
    (fun (l, off, target, c_top, c_tot) ->
      let b = fb.blocks.(l) in
      (* split the block around the indirect call *)
      let rec split pre = function
        | [] -> None
        | ({ op = Insn.Call_ind r; _ } as i) :: post when i.m_off = off ->
            Some (List.rev pre, i, r, post)
        | i :: post -> split (i :: pre) post
      in
      match split [] b.insns with
      | None -> ()
      | Some (pre, icall, reg, post) ->
          let n = Array.length fb.blocks in
          let direct = n and indirect = n + 1 and cont = n + 2 in
          let scale x = if b.ecount = 0 || c_tot = 0 then 0 else b.ecount * x / c_tot in
          let cfi_entry = b.cfi_entry in
          let direct_b =
            new_block ~ecount:(scale c_top) ~cfi_entry
              (fresh_label fb "Licp_direct")
              [ { op = Insn.Call (Insn.Sym (target, 0));
                  lp = icall.lp;
                  loc = icall.loc;
                  cfi_after = [];
                  m_off = -1;
                } ]
              (T_jump cont)
          in
          let indirect_b =
            new_block ~ecount:(scale (c_tot - c_top)) ~cfi_entry
              (fresh_label fb "Licp_ind")
              [ { icall with cfi_after = [] } ]
              (T_jump cont)
          in
          let cont_b =
            new_block ~ecount:b.ecount ~cfi_entry (fresh_label fb "Licp_cont")
              (match icall.cfi_after with
               | [] -> post
               | ops -> (
                   match post with
                   | p0 :: rest -> { p0 with cfi_after = ops @ p0.cfi_after } :: rest
                   | [] -> post))
              b.term
          in
          fb.blocks <- Array.append fb.blocks [| direct_b; indirect_b; cont_b |];
          (* b's outgoing edge counts move to the continuation *)
          cont_b.out <- b.out;
          b.out <- [];
          b.insns <-
            pre
            @ [ { op = Insn.Alu_ri (Insn.Cmp, reg, Insn.Sym (target, 0));
                  lp = None;
                  loc = icall.loc;
                  cfi_after = [];
                  m_off = -1;
                } ];
          b.term <- T_cond (Cond.Eq, direct, indirect);
          add_edge_count b direct (scale c_top) 0;
          add_edge_count b indirect (scale (c_tot - c_top)) 0;
          add_edge_count direct_b cont (scale c_top) 0;
          add_edge_count indirect_b cont (scale (c_tot - c_top)) 0;
          fb.layout <-
            Array.of_list
              (List.concat_map
                 (fun l' -> if l' = l then [ l; direct; indirect; cont ] else [ l' ])
                 (Array.to_list fb.layout));
          Context.sh_incr sh "pass.icp.promoted";
          fb.touched <- true)
    !candidates
