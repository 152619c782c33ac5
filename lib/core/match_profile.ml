(* Profile matching: attach an fdata profile to the reconstructed CFGs.

   In LBR mode, taken-branch records become CFG edge counts directly, and
   fall-through ranges (derived from consecutive LBR entries) supply the
   non-taken edge counts that LBRs by construction never record.  Whatever
   flow is still missing is repaired per §5.2: surplus inflow is
   attributed to the fall-through path, trusting the static compiler's
   original layout under uncertainty.

   In non-LBR mode only IP sample counts exist; block counts are taken
   from the samples and edge counts are inferred with a deliberately
   simple proportional-split algorithm — the "non-ideal" inference whose
   cost the paper quantifies in §5.1/6.5. *)

open Bfunc

type stats = {
  mutable matched_branches : int;
  mutable unmatched_branches : int;
  mutable matched_count : int;
  mutable unmatched_count : int;
  (* match decay from a stale profile (§7: profiles survive minor code
     drift): records whose offsets fall outside the named function, and
     distinct profile names with no function in the binary *)
  mutable stale_records : int;
  mutable unknown_funcs : int;
}

(* A record's function, as an index into [Context.order]; -1 for a name
   that is not a function of the binary. *)
let index ctx name =
  match Context.Names.find ctx.Context.rank name with
  | i -> i
  | exception Not_found -> -1

(* One pass over the records: attach them to the CFGs, and build the
   context's profile view from the same lookups. *)
let attach ctx (prof : Bolt_profile.Fdata.t) : stats =
  (* profile counts are saturating int64; CFG machinery runs on native
     ints, so clamp at the boundary *)
  let c64 = Bolt_profile.Fdata.clamp_int in
  let st =
    {
      matched_branches = 0;
      unmatched_branches = 0;
      matched_count = 0;
      unmatched_count = 0;
      stale_records = 0;
      unknown_funcs = 0;
    }
  in
  (* A stale profile names functions that no longer exist and offsets the
     code has drifted past.  Both degrade that function's profile to
     unmatched/partial — never an exception, never mis-attribution to
     whatever block happens to sit at the bad offset. *)
  let unknown = Hashtbl.create 16 in
  (* names in the symbol table that aren't optimizable functions (plt
     stubs, data symbols) are legitimately unattachable — only names
     absent from the binary altogether hint at a stale profile *)
  let known_syms = Hashtbl.create 64 in
  List.iter
    (fun (s : Bolt_obj.Types.symbol) -> Hashtbl.replace known_syms s.sym_name ())
    ctx.Context.exe.Bolt_obj.Objfile.symbols;
  let note_unknown name =
    if (not (Hashtbl.mem known_syms name)) && not (Hashtbl.mem unknown name)
    then begin
      Hashtbl.replace unknown name ();
      Diag.warnf ctx.Context.diag ~stage:"match-profile" ~func:name
        "profile names a function not in the binary (stale profile?)"
    end
  in
  let stale fb what off =
    st.stale_records <- st.stale_records + 1;
    Diag.warnf ctx.Context.diag ~stage:"match-profile" ~func:fb.fb_name
      "%s offset %d outside function of size %d (stale profile?)" what off
      fb.fb_size
  in
  let unmatched count =
    st.unmatched_branches <- st.unmatched_branches + 1;
    st.unmatched_count <- st.unmatched_count + count
  in
  let in_bounds fb off = off >= 0 && off < fb.fb_size in
  let v = Profile_view.create (Array.of_list (Context.all_funcs ctx)) in
  ctx.Context.profile <- Some v;
  (* 1. taken-branch records -> edges; call records -> entry counts *)
  List.iter
    (fun (b : Bolt_profile.Fdata.branch) ->
      let fi = index ctx b.br_from_func in
      let count = c64 b.br_count in
      if fi >= 0 then Profile_view.add_events v fi count;
      if String.equal b.br_from_func b.br_to_func then begin
        if fi < 0 then begin
          note_unknown b.br_from_func;
          unmatched count
        end
        else
          let fb = v.funcs.(fi) in
          if not fb.simple then ()
          else if not (in_bounds fb b.br_from_off) then begin
            stale fb "branch source" b.br_from_off;
            unmatched count
          end
          else if not (in_bounds fb b.br_to_off) then begin
            stale fb "branch target" b.br_to_off;
            unmatched count
          end
          else begin
            let m = Profile_view.offsets v fi in
            let s = Profile_view.containing m b.br_from_off in
            let d = Profile_view.starting_at m b.br_to_off in
            if s >= 0 && d >= 0 then begin
              add_edge_count fb m.blocks.(s).bl m.blocks.(d).bl count
                (c64 b.br_mispreds);
              st.matched_branches <- st.matched_branches + 1;
              st.matched_count <- st.matched_count + count
            end
            else unmatched count
          end
      end
      else if b.br_to_off = 0 then begin
        (* a call (or tail transfer) into the target's entry *)
        let ti = index ctx b.br_to_func in
        if ti >= 0 then begin
          let fb = v.funcs.(ti) in
          fb.exec_count <- fb.exec_count + count
        end
        else note_unknown b.br_to_func;
        if fi >= 0 then Profile_view.add_call v ~caller:fi ~callee:ti b count
      end)
    prof.branches;
  (* 2. fall-through ranges: block counts + non-taken edge counts *)
  List.iter
    (fun (r : Bolt_profile.Fdata.range) ->
      let i = index ctx r.rg_func in
      if i < 0 then note_unknown r.rg_func
      else begin
        let count = c64 r.rg_count in
        Profile_view.add_events v i count;
        let fb = v.funcs.(i) in
        if not fb.simple then ()
        else if not (in_bounds fb r.rg_start) then stale fb "range start" r.rg_start
        else begin
          (* a range end past the function still profiles the prefix *)
          if not (in_bounds fb r.rg_end) then stale fb "range end" r.rg_end;
          (* covered: the block containing rg_start through the one
             containing rg_end (just the first, for an inverted range) *)
          let m = Profile_view.offsets v i in
          let first = Profile_view.containing m r.rg_start in
          let last = max first (Profile_view.containing m r.rg_end) in
          for k = max first 0 to last do
            let a = m.blocks.(k) in
            (* sequential flow between adjacent covered blocks *)
            (if k < last then
               let next = m.blocks.(k + 1).bl in
               match a.term with
               | T_cond (_, _, fall) when fall = next ->
                   add_edge_count fb a.bl next count 0
               | T_jump t when t = next -> add_edge_count fb a.bl next count 0
               | _ -> ());
            a.ecount <- a.ecount + count
          done
        end
      end)
    prof.ranges;
  (* 3. non-LBR: block counts from IP samples *)
  List.iter
    (fun (s : Bolt_profile.Fdata.sample) ->
      let i = index ctx s.sm_func in
      let count = c64 s.sm_count in
      if i >= 0 then Profile_view.add_events v i count;
      if not prof.lbr then
        if i < 0 then note_unknown s.sm_func
        else
          let fb = v.funcs.(i) in
          if not fb.simple then fb.exec_count <- fb.exec_count + count
          else if not (in_bounds fb s.sm_off) then stale fb "sample" s.sm_off
          else
            let m = Profile_view.offsets v i in
            let k = Profile_view.containing m s.sm_off in
            if k >= 0 then m.blocks.(k).ecount <- m.blocks.(k).ecount + count)
    prof.samples;
  st.unknown_funcs <- Hashtbl.length unknown;
  st

(* Derive block execution counts from edges where ranges left gaps, then
   repair the flow equations. *)
let finalize ctx ~(lbr : bool) ~(trust_fallthrough : bool) =
  Context.iter_funcs ctx (fun fb ->
      if fb.simple then begin
        let inflow = Hashtbl.create 32 and outflow = Hashtbl.create 32 in
        let bump h k v =
          Hashtbl.replace h k (v + try Hashtbl.find h k with Not_found -> 0)
        in
        Hashtbl.iter
          (fun (s, d) (c, _) ->
            bump outflow s !c;
            bump inflow d !c)
          fb.edge_counts;
        Hashtbl.iter
          (fun l b ->
            let cand =
              max b.ecount
                (max
                   (try Hashtbl.find inflow l with Not_found -> 0)
                   (try Hashtbl.find outflow l with Not_found -> 0))
            in
            let cand = if l = fb.entry then max cand fb.exec_count else cand in
            b.ecount <- cand)
          fb.blocks;
        if fb.exec_count = 0 then fb.exec_count <- (block fb fb.entry).ecount;
        (* non-LBR inference: split each block's count across its successors
           proportionally to the successors' own sample counts *)
        if not lbr then
          Hashtbl.iter
            (fun l b ->
              let succs = successors fb b in
              match succs with
              | [] -> ()
              | [ s ] -> set_edge_count fb l s b.ecount
              | _ ->
                  let weights =
                    List.map (fun s -> (s, (block fb s).ecount + 1)) succs
                  in
                  let total = List.fold_left (fun a (_, w) -> a + w) 0 weights in
                  List.iter
                    (fun (s, w) -> set_edge_count fb l s (b.ecount * w / total))
                    weights)
            fb.blocks;
        (* §5.2 repair: put surplus flow on the fall-through edge *)
        if lbr && trust_fallthrough then
          Hashtbl.iter
            (fun l b ->
              match b.term with
              | T_cond (_, taken, fall) when taken <> fall ->
                  let t = edge_count fb l taken in
                  let f = edge_count fb l fall in
                  if b.ecount > t + f then
                    set_edge_count fb l fall (f + (b.ecount - t - f))
              | T_jump t ->
                  if b.ecount > edge_count fb l t then set_edge_count fb l t b.ecount
              | _ -> ())
            fb.blocks;
        (* profile accuracy: how much of the block flow the edges explain *)
        let total = Hashtbl.fold (fun _ b acc -> acc + b.ecount) fb.blocks 0 in
        let explained =
          Hashtbl.fold
            (fun l b acc ->
              let out = List.fold_left (fun a s -> a + edge_count fb l s) 0 (successors fb b) in
              acc + min b.ecount out)
            fb.blocks 0
        in
        fb.profile_acc <- (if total = 0 then 1.0 else float_of_int explained /. float_of_int total)
      end)
