(* Instrumentation-based PGO support.

   The instrumented build inserts a counter bump on every CFG edge (the
   classic, expensive scheme whose overhead motivates sample-based
   profiling in the paper).  Counters live in a .bss array
   [__prof_counters]; the compiler also produces a mapping from counter
   index to (function, edge).  After a run, the counter array is read
   back from the final memory image and [profile_of_counters] turns it
   into an edge profile that [annotate] applies on a later build of the
   same sources. *)

open Ir

let counters_symbol = "__prof_counters"

type mapping = (string * label * label * int) list (* func, src, dst, index *)

(* Instrument every normal CFG edge of every function.  Returns the
   mapping; the program is mutated in place. *)
let instrument (p : program) : mapping =
  let mapping = ref [] in
  let next = ref 0 in
  List.iter
    (fun f ->
      let preds = predecessors f in
      let single_pred l =
        match Hashtbl.find_opt preds l with Some [ _ ] -> true | _ -> false
      in
      (* collect edges first: splitting mutates the block list *)
      let edges =
        List.concat_map
          (fun (l, b) -> List.map (fun s -> (l, s)) (successors b.term))
          f.f_blocks
      in
      List.iter
        (fun (src, dst) ->
          let idx = !next in
          incr next;
          mapping := (f.f_name, src, dst, idx) :: !mapping;
          let sb = block f src in
          match successors sb.term with
          | [ _ ] -> sb.insns <- sb.insns @ [ (Iprofcnt idx, sb.term_line) ]
          | _ ->
              if single_pred dst then begin
                let db = block f dst in
                (* keep a landing pad's first instruction first *)
                match db.insns with
                | (Ilandingpad t, ln) :: rest ->
                    db.insns <- (Ilandingpad t, ln) :: (Iprofcnt idx, ln) :: rest
                | _ -> db.insns <- (Iprofcnt idx, db.term_line) :: db.insns
              end
              else begin
                (* split the critical edge *)
                let mid = new_label f in
                add_block f mid
                  {
                    insns = [ (Iprofcnt idx, sb.term_line) ];
                    term = Tjmp dst;
                    term_line = sb.term_line;
                    lp = sb.lp;
                  };
                let retarget l = if l = dst then mid else l in
                sb.term <-
                  (match sb.term with
                  | Tjmp l -> Tjmp (retarget l)
                  | Tbr (c, a, b2, l1, l2) ->
                      (* only one occurrence per edge instance: retarget both
                         identical targets together is fine for counting *)
                      Tbr (c, a, b2, retarget l1, retarget l2)
                  | Tswitch (t, base, targets, d) ->
                      Tswitch (t, base, Array.map retarget targets, retarget d)
                  | t -> t)
              end)
        edges)
    p.p_funcs;
  (List.rev !mapping, !next) |> fun (m, n) ->
  ignore n;
  m

let num_counters (m : mapping) =
  List.fold_left (fun acc (_, _, _, i) -> max acc (i + 1)) 0 m

(* Combine a mapping with raw counter values into an edge profile. *)
let profile_of_counters (m : mapping) (counters : int array) :
    (string * label * label * int) list =
  List.map
    (fun (f, s, d, i) ->
      (f, s, d, if i < Array.length counters then counters.(i) else 0))
    m

(* Attach edge counts to the program's functions.  The label space must
   match the build that was instrumented: both builds lower and clean up
   identically before this point. *)
let annotate (p : program) prof =
  let by_func = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace by_func f.f_name f) p.p_funcs;
  List.iter
    (fun (fn, s, d, c) ->
      match Hashtbl.find_opt by_func fn with
      | Some f ->
          let prev = try Hashtbl.find f.f_edge_counts (s, d) with Not_found -> 0 in
          Hashtbl.replace f.f_edge_counts (s, d) (prev + c)
      | None -> ())
    prof

let has_profile (f : func) = Hashtbl.length f.f_edge_counts > 0

(* Block execution counts derived from edge counts: max of flow in/out so
   entry blocks and blocks with missing edges still get a weight. *)
let block_counts (f : func) : (label, int) Hashtbl.t =
  let w = Hashtbl.create 16 in
  List.iter (fun (l, _) -> Hashtbl.replace w l 0) f.f_blocks;
  Hashtbl.iter
    (fun (s, d) c ->
      (match Hashtbl.find_opt w s with
      | Some cur -> Hashtbl.replace w s (max cur c)
      | None -> ());
      match Hashtbl.find_opt w d with
      | Some _ ->
          let inflow =
            Hashtbl.fold
              (fun (_, d') c' acc -> if d' = d then acc + c' else acc)
              f.f_edge_counts 0
          in
          Hashtbl.replace w d (max inflow (try Hashtbl.find w d with Not_found -> 0))
      | None -> ())
    f.f_edge_counts;
  w

let entry_count (f : func) =
  let w = block_counts f in
  let outflow =
    Hashtbl.fold
      (fun (s, _) c acc -> if s = f.f_entry then acc + c else acc)
      f.f_edge_counts 0
  in
  max outflow (try Hashtbl.find w f.f_entry with Not_found -> 0)
