(* Stale-profile recovery: match a profile collected on revision N-1
   against the binary of revision N (the Stale Profile Matching recipe —
   structural hashes stamped at build time, fuzzy matching at BOLT time).

   Input: a profile whose header build-id differs from the target
   binary's, carrying the OLD binary's fingerprints (G/GB records), plus
   the NEW binary's fingerprint table.  Output: the same events re-keyed
   to the new binary's function names and offsets, ready for the normal
   [Match_profile.attach] path, plus a per-function recovery breakdown.

   Matching runs in tiers, best evidence first:

   - exact: the function still exists under the same name with identical
     opcode and CFG hashes — or under a different name with an identical
     and unique (opcode, cfg) hash pair (pure rename).  Records are kept
     as-is (offsets are still valid), only renamed if needed.
   - fuzzy: the function exists (by name, or by unique structural
     similarity for renames) but its hashes drifted.  Old blocks are
     aligned to new blocks by hash, and every offset is remapped through
     the alignment; records whose blocks have no counterpart drop.
   - inferred: the function matched but too few blocks aligned to trust
     offset remapping.  Intra-function records are dropped and only
     function-level evidence survives — call edges into the entry, and a
     synthesized entry count when no caller was recorded.  Nothing
     spreads that count over the CFG: for an LBR profile
     [Match_profile.finalize] takes each block's count from that block's
     own edges, and its §5.2 surplus repair moves flow along one edge at
     most, so every block past the entry keeps count 0 and is split
     cold.  The function keeps its call-graph heat, not its block
     layout; ROADMAP.md's flow-inference item is the fix.
   - dropped: no plausible counterpart (the function was deleted).  Its
     records are removed entirely, so they cannot spray unknown-function
     diagnostics downstream.

   Everything is deterministic: candidates are scanned in sorted name
   order and ties refuse to match rather than pick arbitrarily. *)

module F = Bolt_obj.Fingerprint

type tier = Exact | Fuzzy | Inferred | Dropped

type stats = {
  st_funcs : int; (* old profiled functions considered *)
  st_exact : int;
  st_fuzzy : int;
  st_inferred : int;
  st_dropped : int;
  st_records_in : int; (* branch+range+sample records before *)
  st_records_kept : int; (* ... and after recovery *)
}

(* Componentwise sum of per-shard recoveries: one fleet-level
   breakdown, [None] when no shard needed recovering. *)
let sum_stats = function
  | [] -> None
  | st :: rest ->
      Some
        (List.fold_left
           (fun a b ->
             {
               st_funcs = a.st_funcs + b.st_funcs;
               st_exact = a.st_exact + b.st_exact;
               st_fuzzy = a.st_fuzzy + b.st_fuzzy;
               st_inferred = a.st_inferred + b.st_inferred;
               st_dropped = a.st_dropped + b.st_dropped;
               st_records_in = a.st_records_in + b.st_records_in;
               st_records_kept = a.st_records_kept + b.st_records_kept;
             })
           st rest)

(* Share of profiled functions whose data survived in some form. *)
let recovery_rate st =
  if st.st_funcs = 0 then 1.0
  else
    float_of_int (st.st_exact + st.st_fuzzy + st.st_inferred)
    /. float_of_int st.st_funcs

let pp_stats ppf st =
  Fmt.pf ppf "%d functions: %d exact, %d fuzzy, %d inferred, %d dropped (%d/%d records kept)"
    st.st_funcs st.st_exact st.st_fuzzy st.st_inferred st.st_dropped
    st.st_records_kept st.st_records_in

(* A profile is stale w.r.t. a target build when both are stamped and
   they disagree.  Unstamped sides can't be judged — not stale. *)
let is_stale ~build_id (p : Fdata.t) =
  build_id <> ""
  &&
  match p.Fdata.header with
  | Some h -> h.Fdata.hd_build_id <> "" && h.Fdata.hd_build_id <> build_id
  | None -> false

(* ---- block alignment ---- *)

(* Pair old blocks with new blocks.  Equal counts: positional (straight-
   line edits keep the block list shape).  Unequal: greedy two-pointer
   walk pairing blocks that agree on either hash, skipping from the side
   with more blocks left — insertions and deletions shift alignment by
   exactly the edit distance. *)
let align_blocks (olds : F.block array) (news : F.block array) :
    (int * int) list =
  let no = Array.length olds and nn = Array.length news in
  if no = nn then List.init no (fun i -> (i, i))
  else begin
    let pairs = ref [] in
    let i = ref 0 and j = ref 0 in
    while !i < no && !j < nn do
      let ob = olds.(!i) and nb = news.(!j) in
      if
        ob.F.bk_opcode_hash = nb.F.bk_opcode_hash
        || ob.F.bk_shape_hash = nb.F.bk_shape_hash
      then begin
        pairs := (!i, !j) :: !pairs;
        incr i;
        incr j
      end
      else if no - !i > nn - !j then incr i
      else incr j
    done;
    List.rev !pairs
  end

(* An offset translator built from an alignment: [map_start] translates
   exact old block starts (branch targets must stay block starts to
   attach as edges), [map_within] translates by containment (branch
   sources and samples land anywhere inside a block). *)
type offmap = {
  map_start : int -> int option;
  map_within : int -> int option;
  quality : float; (* aligned fraction of old blocks *)
}

let identity_offmap =
  { map_start = (fun o -> Some o); map_within = (fun o -> Some o); quality = 1.0 }

let make_offmap (old_fp : F.func) (new_fp : F.func) : offmap =
  let olds = Array.of_list old_fp.F.fp_blocks in
  let news = Array.of_list new_fp.F.fp_blocks in
  let pairs = align_blocks olds news in
  let start_tbl = Hashtbl.create 16 in
  List.iter
    (fun (i, j) -> Hashtbl.replace start_tbl olds.(i).F.bk_off news.(j).F.bk_off)
    pairs;
  let pair_of_old = Hashtbl.create 16 in
  List.iter (fun (i, j) -> Hashtbl.replace pair_of_old i j) pairs;
  (* containing old block, by binary search over sorted starts *)
  let containing off =
    let lo = ref 0 and hi = ref (Array.length olds - 1) in
    let res = ref None in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let b = olds.(mid) in
      if off < b.F.bk_off then hi := mid - 1
      else if off >= b.F.bk_off + b.F.bk_size then lo := mid + 1
      else begin
        res := Some mid;
        lo := !hi + 1
      end
    done;
    !res
  in
  {
    map_start = (fun o -> Hashtbl.find_opt start_tbl o);
    map_within =
      (fun o ->
        match containing o with
        | None -> None
        | Some i -> (
            match Hashtbl.find_opt pair_of_old i with
            | None -> None
            | Some j ->
                let ob = olds.(i) and nb = news.(j) in
                Some (nb.F.bk_off + min (o - ob.F.bk_off) (max 0 (nb.F.bk_size - 1)))));
    quality =
      (let no = Array.length olds in
       if no = 0 then 1.0 else float_of_int (List.length pairs) /. float_of_int no);
  }

(* Below this alignment quality, offset remapping is noise: degrade to
   entry-count inference instead of attaching counts to wrong blocks. *)
let min_fuzzy_quality = 0.5

(* ---- function matching ---- *)

type mapping = { mp_tier : tier; mp_name : string; mp_off : offmap }

let jaccard a b =
  match (a, b) with
  | [], [] -> 1.0
  | _ ->
      let sa = List.sort_uniq compare a and sb = List.sort_uniq compare b in
      let inter =
        List.length (List.filter (fun x -> List.mem x sb) sa)
      in
      let union = List.length sa + List.length sb - inter in
      if union = 0 then 1.0 else float_of_int inter /. float_of_int union

(* Similarity evidence for rename candidates: hash agreement dominates,
   call-set and block-count agreement break the tie. *)
let similarity (o : F.func) (n : F.func) =
  (if o.F.fp_opcode_hash = n.F.fp_opcode_hash then 2 else 0)
  + (if o.F.fp_cfg_hash = n.F.fp_cfg_hash then 2 else 0)
  + (if List.length o.F.fp_blocks = List.length n.F.fp_blocks then 1 else 0)
  + if jaccard o.F.fp_calls n.F.fp_calls >= 0.5 then 1 else 0

let min_rename_score = 3

(* Match every old fingerprint to a tier + target.  [profiled] restricts
   the stats to functions that actually carry records. *)
let match_functions (old_fps : F.func list) (new_fps : F.func list) :
    (string, mapping) Hashtbl.t =
  let result = Hashtbl.create 64 in
  let new_by_name = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace new_by_name f.F.fp_func f) new_fps;
  let claimed = Hashtbl.create 64 in
  let olds = List.sort (fun a b -> compare a.F.fp_func b.F.fp_func) old_fps in
  (* tier the name-preserving matches first: they also pin down which new
     functions are NOT rename targets *)
  let renames_pending = ref [] in
  List.iter
    (fun (o : F.func) ->
      match Hashtbl.find_opt new_by_name o.F.fp_func with
      | Some n ->
          Hashtbl.replace claimed n.F.fp_func ();
          if
            o.F.fp_opcode_hash = n.F.fp_opcode_hash
            && o.F.fp_cfg_hash = n.F.fp_cfg_hash
          then
            Hashtbl.replace result o.F.fp_func
              { mp_tier = Exact; mp_name = n.F.fp_func; mp_off = identity_offmap }
          else
            let om = make_offmap o n in
            let tier = if om.quality >= min_fuzzy_quality then Fuzzy else Inferred in
            Hashtbl.replace result o.F.fp_func
              { mp_tier = tier; mp_name = n.F.fp_func; mp_off = om }
      | None -> renames_pending := o :: !renames_pending)
    olds;
  (* rename detection over the leftovers, in sorted order so claiming is
     deterministic *)
  let unclaimed () =
    List.filter (fun n -> not (Hashtbl.mem claimed n.F.fp_func)) new_fps
    |> List.sort (fun a b -> compare a.F.fp_func b.F.fp_func)
  in
  List.iter
    (fun (o : F.func) ->
      let cands = unclaimed () in
      (* a unique, structurally-identical candidate is a pure rename *)
      let exact_cands =
        List.filter
          (fun n ->
            n.F.fp_opcode_hash = o.F.fp_opcode_hash
            && n.F.fp_cfg_hash = o.F.fp_cfg_hash)
          cands
      in
      match exact_cands with
      | [ n ] ->
          Hashtbl.replace claimed n.F.fp_func ();
          Hashtbl.replace result o.F.fp_func
            { mp_tier = Exact; mp_name = n.F.fp_func; mp_off = identity_offmap }
      | _ -> (
          (* otherwise: strongest similarity, but only when unambiguous *)
          let scored =
            List.map (fun n -> (similarity o n, n)) cands
            |> List.filter (fun (s, _) -> s >= min_rename_score)
            |> List.sort (fun (sa, a) (sb, b) ->
                   compare (-sa, a.F.fp_func) (-sb, b.F.fp_func))
          in
          match scored with
          | (s1, n) :: rest
            when (match rest with (s2, _) :: _ -> s2 < s1 | [] -> true) ->
              Hashtbl.replace claimed n.F.fp_func ();
              let om = make_offmap o n in
              let tier =
                if om.quality >= min_fuzzy_quality then Fuzzy else Inferred
              in
              Hashtbl.replace result o.F.fp_func
                { mp_tier = tier; mp_name = n.F.fp_func; mp_off = om }
          | _ ->
              Hashtbl.replace result o.F.fp_func
                { mp_tier = Dropped; mp_name = o.F.fp_func; mp_off = identity_offmap }))
    (List.sort (fun a b -> compare a.F.fp_func b.F.fp_func) !renames_pending);
  result

(* ---- record rewriting ---- *)

(* Synthetic caller for inferred entry counts.  [Match_profile.attach]
   credits a call record to its target's entry; the ghost name is no
   function of the binary, so it gets no event total, call weight or
   call site (and no unknown-function diagnostic), and it is
   self-describing in dumps. *)
let ghost_caller = "<stale-inferred>"

let recover ~(fingerprints : F.t) ~(build_id : string) (p : Fdata.t) :
    Fdata.t * stats =
  let mappings = match_functions p.Fdata.fingerprints fingerprints in
  let lookup f = Hashtbl.find_opt mappings f in
  (* functions that actually carry records, for the stats *)
  let profiled = Hashtbl.create 64 in
  let note f = if Hashtbl.mem mappings f then Hashtbl.replace profiled f () in
  List.iter
    (fun (b : Fdata.branch) ->
      note b.Fdata.br_from_func;
      note b.Fdata.br_to_func)
    p.Fdata.branches;
  List.iter (fun (r : Fdata.range) -> note r.Fdata.rg_func) p.Fdata.ranges;
  List.iter (fun (s : Fdata.sample) -> note s.Fdata.sm_func) p.Fdata.samples;
  let rename f = match lookup f with Some m -> m.mp_name | None -> f in
  let tier_of f = match lookup f with Some m -> Some m.mp_tier | None -> None in
  (* inferred functions whose entry count must be synthesized if no call
     record into them survives *)
  let inferred_entry_seen = Hashtbl.create 16 in
  let inferred_hottest = Hashtbl.create 16 in
  let branches = ref [] in
  List.iter
    (fun (b : Fdata.branch) ->
      let intra = b.Fdata.br_from_func = b.Fdata.br_to_func && b.Fdata.br_to_off <> 0 in
      if intra then begin
        match lookup b.Fdata.br_from_func with
        | None -> branches := b :: !branches (* no fingerprint: passthrough *)
        | Some { mp_tier = Exact; mp_name; _ } ->
            branches :=
              { b with Fdata.br_from_func = mp_name; br_to_func = mp_name }
              :: !branches
        | Some { mp_tier = Fuzzy; mp_name; mp_off } -> (
            match
              (mp_off.map_within b.Fdata.br_from_off, mp_off.map_start b.Fdata.br_to_off)
            with
            | Some fo, Some to_ ->
                branches :=
                  {
                    b with
                    Fdata.br_from_func = mp_name;
                    br_from_off = fo;
                    br_to_func = mp_name;
                    br_to_off = to_;
                  }
                  :: !branches
            | _ -> () (* block vanished: drop the edge *))
        | Some { mp_tier = Inferred; mp_name; _ } ->
            (* block-level data is untrustworthy; remember the hottest
               edge as an entry-count floor for the dataflow repair *)
            let prev =
              try Hashtbl.find inferred_hottest mp_name with Not_found -> 0L
            in
            if b.Fdata.br_count > prev then
              Hashtbl.replace inferred_hottest mp_name b.Fdata.br_count
        | Some { mp_tier = Dropped; _ } -> ()
      end
      else begin
        (* cross-function transfer (or entry branch): target must be
           alive; the source side of a call record is never resolved by
           the matcher, so a best-effort rename suffices *)
        match tier_of b.Fdata.br_to_func with
        | Some Dropped -> ()
        | _ ->
            let to_off =
              if b.Fdata.br_to_off = 0 then Some 0
              else
                match lookup b.Fdata.br_to_func with
                | None | Some { mp_tier = Exact; _ } -> Some b.Fdata.br_to_off
                | Some { mp_tier = Fuzzy; mp_off; _ } ->
                    mp_off.map_start b.Fdata.br_to_off
                | Some { mp_tier = Inferred | Dropped; _ } -> None
            in
            (match to_off with
            | None -> ()
            | Some to_off ->
                let from_off =
                  match lookup b.Fdata.br_from_func with
                  | Some { mp_tier = Fuzzy; mp_off; _ } -> (
                      match mp_off.map_within b.Fdata.br_from_off with
                      | Some o -> o
                      | None -> b.Fdata.br_from_off)
                  | _ -> b.Fdata.br_from_off
                in
                if b.Fdata.br_to_off = 0 then
                  Hashtbl.replace inferred_entry_seen
                    (rename b.Fdata.br_to_func) ();
                branches :=
                  {
                    b with
                    Fdata.br_from_func = rename b.Fdata.br_from_func;
                    br_from_off = from_off;
                    br_to_func = rename b.Fdata.br_to_func;
                    br_to_off = to_off;
                  }
                  :: !branches)
      end)
    p.Fdata.branches;
  (* synthesize entry counts for inferred functions nobody calls in the
     profile (a main-like root): the hottest intra edge is a conservative
     stand-in that the flow repair then spreads over the CFG *)
  Hashtbl.iter
    (fun name hottest ->
      if not (Hashtbl.mem inferred_entry_seen name) && hottest > 0L then
        branches :=
          {
            Fdata.br_from_func = ghost_caller;
            br_from_off = 0;
            br_to_func = name;
            br_to_off = 0;
            br_count = hottest;
            br_mispreds = 0L;
          }
          :: !branches)
    inferred_hottest;
  let ranges =
    List.filter_map
      (fun (r : Fdata.range) ->
        match lookup r.Fdata.rg_func with
        | None -> Some r
        | Some { mp_tier = Exact; mp_name; _ } -> Some { r with Fdata.rg_func = mp_name }
        | Some { mp_tier = Fuzzy; mp_name; mp_off } -> (
            match
              (mp_off.map_within r.Fdata.rg_start, mp_off.map_within r.Fdata.rg_end)
            with
            | Some s, Some e when e >= s ->
                Some { Fdata.rg_func = mp_name; rg_start = s; rg_end = e; rg_count = r.Fdata.rg_count }
            | _ -> None)
        | Some { mp_tier = Inferred | Dropped; _ } -> None)
      p.Fdata.ranges
  in
  let samples =
    List.filter_map
      (fun (s : Fdata.sample) ->
        match lookup s.Fdata.sm_func with
        | None -> Some s
        | Some { mp_tier = Exact; mp_name; _ } -> Some { s with Fdata.sm_func = mp_name }
        | Some { mp_tier = Fuzzy; mp_name; mp_off } -> (
            match mp_off.map_within s.Fdata.sm_off with
            | Some o -> Some { Fdata.sm_func = mp_name; sm_off = o; sm_count = s.Fdata.sm_count }
            | None -> None)
        | Some { mp_tier = Inferred; mp_name; _ } ->
            (* function-level hotness survives even when offsets don't *)
            Some { Fdata.sm_func = mp_name; sm_off = 0; sm_count = s.Fdata.sm_count }
        | Some { mp_tier = Dropped; _ } -> None)
      p.Fdata.samples
  in
  let recovered =
    Fdata.normalize
      {
        p with
        Fdata.header =
          (* the recovered profile now describes the target revision *)
          Some
            {
              (Option.value ~default:Fdata.no_header p.Fdata.header) with
              Fdata.hd_build_id = build_id;
            };
        branches = !branches;
        ranges;
        samples;
        fingerprints;
      }
  in
  let count_tier t =
    Hashtbl.fold
      (fun f () acc ->
        match lookup f with Some m when m.mp_tier = t -> acc + 1 | _ -> acc)
      profiled 0
  in
  let records (q : Fdata.t) =
    List.length q.Fdata.branches + List.length q.Fdata.ranges
    + List.length q.Fdata.samples
  in
  ( recovered,
    {
      st_funcs = Hashtbl.length profiled;
      st_exact = count_tier Exact;
      st_fuzzy = count_tier Fuzzy;
      st_inferred = count_tier Inferred;
      st_dropped = count_tier Dropped;
      st_records_in = records p;
      st_records_kept = records recovered;
    } )

(* One-shot entry point: recover only when the profile is actually stale
   and both sides carry fingerprints.  [None] means "use the profile
   as-is" — fresh, unstamped, or unmatchable. *)
let recover_if_stale ~(fingerprints : F.t) ~(build_id : string) (p : Fdata.t) :
    (Fdata.t * stats) option =
  if
    is_stale ~build_id p
    && p.Fdata.fingerprints <> []
    && fingerprints <> []
  then Some (recover ~fingerprints ~build_id p)
  else None
