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

(* offset -> block lookup per function *)
let offset_maps (fb : Bfunc.t) =
  let starts = Hashtbl.create 32 in
  let spans = ref [] in
  Hashtbl.iter
    (fun _ b ->
      if b.b_off >= 0 then begin
        Hashtbl.replace starts b.b_off b.bl;
        spans := (b.b_off, b.bl) :: !spans
      end)
    fb.blocks;
  let arr = Array.of_list (List.sort compare !spans) in
  let containing off =
    (* greatest block start <= off *)
    let lo = ref 0 and hi = ref (Array.length arr - 1) in
    let res = ref None in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let o, l = arr.(mid) in
      if o <= off then begin
        res := Some l;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    !res
  in
  (starts, containing, arr)

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
  let in_bounds fb off = off >= 0 && off < fb.fb_size in
  let maps = Hashtbl.create 64 in
  let map_of fb =
    match Hashtbl.find_opt maps fb.fb_name with
    | Some m -> m
    | None ->
        let m = offset_maps fb in
        Hashtbl.add maps fb.fb_name m;
        m
  in
  (* 1. taken-branch records -> edges; call records -> entry counts *)
  List.iter
    (fun (b : Bolt_profile.Fdata.branch) ->
      if b.br_from_func = b.br_to_func then begin
        match Context.func ctx b.br_from_func with
        | Some fb when fb.simple ->
            let drop () =
              st.unmatched_branches <- st.unmatched_branches + 1;
              st.unmatched_count <- st.unmatched_count + c64 b.br_count
            in
            if not (in_bounds fb b.br_from_off) then begin
              stale fb "branch source" b.br_from_off;
              drop ()
            end
            else if not (in_bounds fb b.br_to_off) then begin
              stale fb "branch target" b.br_to_off;
              drop ()
            end
            else begin
              let starts, containing, _ = map_of fb in
              let src = containing b.br_from_off in
              let dst = Hashtbl.find_opt starts b.br_to_off in
              match (src, dst) with
              | Some s, Some d ->
                  add_edge_count fb s d (c64 b.br_count) (c64 b.br_mispreds);
                  st.matched_branches <- st.matched_branches + 1;
                  st.matched_count <- st.matched_count + c64 b.br_count
              | _ -> drop ()
            end
        | Some _ -> ()
        | None ->
            note_unknown b.br_from_func;
            st.unmatched_branches <- st.unmatched_branches + 1;
            st.unmatched_count <- st.unmatched_count + c64 b.br_count
      end
      else if b.br_to_off = 0 then begin
        (* a call (or tail transfer) into the target's entry *)
        match Context.func ctx b.br_to_func with
        | Some fb -> fb.exec_count <- fb.exec_count + c64 b.br_count
        | None -> note_unknown b.br_to_func
      end)
    prof.branches;
  (* 2. fall-through ranges: block counts + non-taken edge counts *)
  List.iter
    (fun (r : Bolt_profile.Fdata.range) ->
      match Context.func ctx r.rg_func with
      | Some fb when fb.simple && not (in_bounds fb r.rg_start) ->
          stale fb "range start" r.rg_start
      | Some fb when fb.simple ->
          (* a range end past the function still profiles the prefix *)
          if not (in_bounds fb r.rg_end) then stale fb "range end" r.rg_end;
          let _, _, arr = map_of fb in
          (* the blocks starting in [rg_start, rg_end]: a binary search
             for the first, then a walk while the start is in range *)
          let covered =
            let lo = ref 0 and hi = ref (Array.length arr) in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if fst arr.(mid) < r.rg_start then lo := mid + 1 else hi := mid
            done;
            let last = ref !lo in
            while !last < Array.length arr && fst arr.(!last) <= r.rg_end do
              incr last
            done;
            let acc = ref [] in
            for k = !last - 1 downto !lo do
              acc := arr.(k) :: !acc
            done;
            !acc
          in
          (* the block containing rg_start is covered too if it starts earlier *)
          let covered =
            let _, containing, _ = map_of fb in
            match containing r.rg_start with
            | Some l when not (List.exists (fun (_, l') -> l' = l) covered) ->
                ((-1), l) :: covered
            | _ -> covered
          in
          let rec pairs = function
            | (_, a) :: ((_, b) :: _ as rest) ->
                (* sequential flow between adjacent covered blocks *)
                let ba = block fb a in
                (match ba.term with
                | T_cond (_, _, fall) when fall = b ->
                    add_edge_count fb a b (c64 r.rg_count) 0
                | T_jump t when t = b -> add_edge_count fb a b (c64 r.rg_count) 0
                | _ -> ());
                pairs rest
            | _ -> ()
          in
          pairs covered;
          List.iter
            (fun (_, l) ->
              let b = block fb l in
              b.ecount <- b.ecount + c64 r.rg_count)
            covered
      | Some _ -> ()
      | None -> note_unknown r.rg_func)
    prof.ranges;
  (* 3. non-LBR: block counts from IP samples *)
  if not prof.lbr then
    List.iter
      (fun (s : Bolt_profile.Fdata.sample) ->
        match Context.func ctx s.sm_func with
        | Some fb when fb.simple && not (in_bounds fb s.sm_off) ->
            stale fb "sample" s.sm_off
        | Some fb when fb.simple -> (
            let _, containing, _ = map_of fb in
            match containing s.sm_off with
            | Some l ->
                let b = block fb l in
                b.ecount <- b.ecount + c64 s.sm_count
            | None -> ())
        | Some fb -> fb.exec_count <- fb.exec_count + c64 s.sm_count
        | None -> note_unknown s.sm_func)
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
