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

(* One pass over the records: attach them to the CFGs, and build the
   context's profile view from the same lookups. *)
let attach ctx (prof : Bolt_profile.Fdata.t) : stats =
  (* profile counts are saturating int64; CFG machinery runs on native
     ints, so clamp at the boundary, and sum saturating *)
  let c64 = Bolt_profile.Fdata.clamp_int in
  let sat = Bolt_profile.Fdata.sat_add_int in
  let funcs = ctx.Context.funcs in
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
  let v = Profile_view.create (Array.length funcs) in
  ctx.Context.profile <- Some v;
  (* 1. taken-branch records -> edges; call records -> entry counts *)
  List.iter
    (fun (b : Bolt_profile.Fdata.branch) ->
      let fi = Context.id ctx b.br_from_func in
      let count = c64 b.br_count in
      if fi >= 0 then Profile_view.add_events v fi count;
      if String.equal b.br_from_func b.br_to_func then begin
        if fi < 0 then begin
          note_unknown b.br_from_func;
          unmatched count
        end
        else
          let fb = funcs.(fi) in
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
            let s = containing fb b.br_from_off in
            let d = starting_at fb b.br_to_off in
            if s >= 0 && d >= 0 then begin
              add_edge_count fb.blocks.(s) d count (c64 b.br_mispreds);
              st.matched_branches <- st.matched_branches + 1;
              st.matched_count <- st.matched_count + count
            end
            else unmatched count
          end
      end
      else if b.br_to_off = 0 then begin
        (* a call (or tail transfer) into the target's entry *)
        let ti = Context.id ctx b.br_to_func in
        if ti >= 0 then begin
          let fb = funcs.(ti) in
          fb.exec_count <- sat fb.exec_count count
        end
        else note_unknown b.br_to_func;
        if fi >= 0 then Profile_view.add_call v ~caller:fi ~callee:ti b count
      end)
    prof.branches;
  (* 2. fall-through ranges: block counts + non-taken edge counts *)
  List.iter
    (fun (r : Bolt_profile.Fdata.range) ->
      let i = Context.id ctx r.rg_func in
      if i < 0 then note_unknown r.rg_func
      else begin
        let count = c64 r.rg_count in
        Profile_view.add_events v i count;
        let fb = funcs.(i) in
        if not fb.simple then ()
        else if not (in_bounds fb r.rg_start) then stale fb "range start" r.rg_start
        else begin
          (* a range end past the function still profiles the prefix *)
          if not (in_bounds fb r.rg_end) then stale fb "range end" r.rg_end;
          (* covered: the block containing rg_start through the one
             containing rg_end (just the first, for an inverted range) *)
          let first = containing fb r.rg_start in
          let last = max first (containing fb r.rg_end) in
          for k = max first 0 to last do
            let a = fb.blocks.(k) in
            (* sequential flow between adjacent covered blocks *)
            (if k < last then
               match a.term with
               | T_cond (_, _, fall) when fall = k + 1 -> add_edge_count a fall count 0
               | T_jump t when t = k + 1 -> add_edge_count a t count 0
               | _ -> ());
            a.ecount <- sat a.ecount count
          done
        end
      end)
    prof.ranges;
  (* 3. non-LBR: block counts from IP samples *)
  List.iter
    (fun (s : Bolt_profile.Fdata.sample) ->
      let i = Context.id ctx s.sm_func in
      let count = c64 s.sm_count in
      if i >= 0 then Profile_view.add_events v i count;
      if not prof.lbr then
        if i < 0 then note_unknown s.sm_func
        else
          let fb = funcs.(i) in
          if not fb.simple then fb.exec_count <- sat fb.exec_count count
          else if not (in_bounds fb s.sm_off) then stale fb "sample" s.sm_off
          else
            let k = containing fb s.sm_off in
            if k >= 0 then fb.blocks.(k).ecount <- sat fb.blocks.(k).ecount count)
    prof.samples;
  st.unknown_funcs <- Hashtbl.length unknown;
  st

(* [c * w / total] for [0 < w <= total], kept within [0, c] when the
   product would overflow. *)
let share c w total =
  if c <= 0 then 0
  else if c <= max_int / w then c * w / total
  else
    let x = float_of_int c *. (float_of_int w /. float_of_int total) in
    if x >= float_of_int c then c else int_of_float x

(* Derive block execution counts from edges where ranges left gaps, then
   repair the flow equations.  Each derivation walks the layout; at this
   point it holds every block. *)
let finalize ctx ~(lbr : bool) ~(trust_fallthrough : bool) =
  let sat = Bolt_profile.Fdata.sat_add_int in
  Context.iter_funcs ctx (fun fb ->
      if fb.simple then begin
        let n = Array.length fb.blocks in
        let inflow = Array.make n 0 and outflow = Array.make n 0 in
        iter_layout fb (fun l b ->
            List.iter
              (fun e ->
                outflow.(l) <- sat outflow.(l) e.count;
                inflow.(e.dst) <- sat inflow.(e.dst) e.count)
              b.out);
        iter_layout fb (fun l b ->
            let cand = max b.ecount (max inflow.(l) outflow.(l)) in
            b.ecount <- (if l = 0 then max cand fb.exec_count else cand));
        if fb.exec_count = 0 && n > 0 then fb.exec_count <- fb.blocks.(0).ecount;
        (* non-LBR inference: split each block's count across its successors
           proportionally to the successors' own sample counts; the
           weights and their total saturate, so counts near [max_int]
           cannot wrap the total to 0 *)
        if not lbr then
          iter_layout fb (fun _ b ->
              match successors fb b with
              | [] -> ()
              | [ s ] -> set_edge_count b s b.ecount
              | succs ->
                  let weights =
                    List.map (fun s -> (s, sat (max 0 fb.blocks.(s).ecount) 1)) succs
                  in
                  let total = List.fold_left (fun a (_, w) -> sat a w) 0 weights in
                  List.iter
                    (fun (s, w) -> set_edge_count b s (share b.ecount w total))
                    weights);
        (* §5.2 repair: put surplus flow on the fall-through edge *)
        if lbr && trust_fallthrough then
          iter_layout fb (fun _ b ->
              match b.term with
              | T_cond (_, taken, fall) when taken <> fall ->
                  let t = edge_count b taken in
                  let f = edge_count b fall in
                  if b.ecount > t + f then set_edge_count b fall (f + (b.ecount - t - f))
              | T_jump t ->
                  if b.ecount > edge_count b t then set_edge_count b t b.ecount
              | _ -> ());
        (* profile accuracy: how much of the block flow the edges explain *)
        let total = ref 0 and explained = ref 0 in
        iter_layout fb (fun _ b ->
            let out = List.fold_left (fun a s -> a + edge_count b s) 0 (successors fb b) in
            total := !total + b.ecount;
            explained := !explained + min b.ecount out);
        fb.profile_acc <-
          (if !total = 0 then 1.0 else float_of_int !explained /. float_of_int !total)
      end)
