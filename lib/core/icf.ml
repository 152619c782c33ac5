(* Pass 2/7: identical code folding at the binary level.

   BOLT's ICF folds strictly more than the linker's: it normalises block
   labels to layout indices and resolves call targets through the current
   fold map, so functions that differ only in label names, in jump-table
   placement, or that call previously-folded twins, all collapse.  The
   fixpoint iteration is what lets mutually-similar families fold.

   Like llvm-bolt's IdenticalCodeFolding, the pass hashes before it
   compares.  Each simple function gets one symbol-blind structural hash
   ([shape]) per invocation, and the [normalize]-keyed rounds then run
   only over functions whose shape bucket has another member: a function
   alone in its bucket can never match a key.  Most functions are alone,
   so the pass costs one hash per function plus keys for the few that
   may fold. *)

open Bfunc

(* The two renamings [normalize] and [shape] share: a block id's layout
   index (-1 for none, or for a pad outside the function), and a
   jump-table base address's table index. *)
let indexes (fb : Bfunc.t) =
  let pos = positions fb in
  let jt_index = Hashtbl.create 4 in
  Array.iteri (fun k (jt : jt) -> Hashtbl.replace jt_index jt.jt_addr k) fb.jts;
  ((fun l -> if valid fb l then pos.(l) else -1), Hashtbl.find_opt jt_index)

(* A structural key for a function, with intra-function labels replaced by
   layout indices and call targets resolved through [canon]. *)
let normalize canon (fb : Bfunc.t) : string =
  let layout_index, jt_index = indexes fb in
  let blk l = match layout_index l with -1 -> "?" | i -> string_of_int i in
  let buf = Buffer.create 256 in
  let value v =
    match v with
    | Bolt_isa.Insn.Imm n -> (
        (* jump-table base addresses normalise to the table index, so two
           functions with identical tables at different addresses fold *)
        match jt_index n with
        | Some k -> Printf.sprintf "#JT%d" k
        | None -> Printf.sprintf "#%d" n)
    | Bolt_isa.Insn.Sym (s, a) -> Printf.sprintf "@%s+%d" (canon s) a
  in
  iter_layout fb (fun l b ->
      Buffer.add_string buf (Printf.sprintf "[%s lp:%b " (blk l) b.is_lp);
      List.iter
        (fun (i : minsn) ->
          (match Bolt_isa.Insn.value i.op with
          | Some v ->
              Buffer.add_string buf (Bolt_isa.Insn.to_string (Bolt_isa.Insn.with_value i.op (Bolt_isa.Insn.Imm 0)));
              Buffer.add_string buf (value v)
          | None -> Buffer.add_string buf (Bolt_isa.Insn.to_string i.op));
          (match i.lp with
          | Some p -> Buffer.add_string buf ("!lp" ^ blk p)
          | None -> ());
          Buffer.add_char buf ';')
        b.insns;
      (match b.term with
      | T_jump t -> Buffer.add_string buf ("J" ^ blk t)
      | T_cond (c, a, f) ->
          Buffer.add_string buf (Printf.sprintf "C%s,%s,%s" (Bolt_isa.Cond.name c) (blk a) (blk f))
      | T_condtail (c, fn, f) ->
          Buffer.add_string buf (Printf.sprintf "T%s,@%s,%s" (Bolt_isa.Cond.name c) (canon fn) (blk f))
      | T_indirect (Some k) ->
          let jt = fb.jts.(k) in
          Buffer.add_string buf
            (Printf.sprintf "I%b:%s" jt.jt_pic
               (String.concat "," (Array.to_list (Array.map blk jt.jt_targets))))
      | T_indirect None -> Buffer.add_string buf "I?"
      | T_stop -> Buffer.add_string buf "S");
      Buffer.add_char buf ']');
  Buffer.contents buf

(* A structural hash of everything [normalize] prints except symbol
   names: per block, its [is_lp] flag (its label is its layout index);
   per instruction, the op with its operand erased, the operand's
   immediate (jump-table bases as the table index) or [Sym] addend, and
   the landing pad's layout index; per terminator, its kind, condition,
   layout indices and jump-table targets.  Equal [normalize] keys under
   any [canon] imply equal shapes; distinct shapes that collide only cost
   a key comparison. *)
let shape (fb : Bfunc.t) : int =
  let mix = Bolt_obj.Fingerprint.mix in
  let blk, jt_index = indexes fb in
  let h = ref Bolt_obj.Fingerprint.hash_empty in
  let add x = h := mix !h x in
  iter_layout fb (fun _ b ->
      add (if b.is_lp then 1 else 2);
      List.iter
        (fun (i : minsn) ->
          (match Bolt_isa.Insn.value i.op with
          | Some v -> (
              add (Hashtbl.hash (Bolt_isa.Insn.with_value i.op (Bolt_isa.Insn.Imm 0)));
              match v with
              | Bolt_isa.Insn.Imm n -> (
                  match jt_index n with
                  | Some k ->
                      add 3;
                      add k
                  | None ->
                      add 4;
                      add n)
              | Bolt_isa.Insn.Sym (_, a) ->
                  add 5;
                  add a)
          | None -> add (Hashtbl.hash i.op));
          match i.lp with
          | Some p ->
              add 6;
              add (blk p)
          | None -> add 7)
        b.insns;
      match b.term with
      | T_jump t ->
          add 8;
          add (blk t)
      | T_cond (c, a, f) ->
          add 9;
          add (Bolt_isa.Cond.to_int c);
          add (blk a);
          add (blk f)
      | T_condtail (c, _, f) ->
          add 10;
          add (Bolt_isa.Cond.to_int c);
          add (blk f)
      | T_indirect (Some k) ->
          let jt = fb.jts.(k) in
          add 11;
          add (Bool.to_int jt.jt_pic);
          add (Array.length jt.jt_targets);
          Array.iter (fun l -> add (blk l)) jt.jt_targets
      | T_indirect None -> add 12
      | T_stop -> add 13);
  !h

type result = {
  folded : int;
  bytes_saved : int;
  candidates : int; (* functions in a shape bucket with another member *)
  rounds : int; (* [normalize]-keyed rounds run *)
}

let run ctx =
  let folded_total = ref 0 in
  let bytes_saved = ref 0 in
  let canon_map : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let rec canon s =
    match Hashtbl.find_opt canon_map s with Some s' -> canon s' | None -> s
  in
  (* bodies do not change between rounds, so shapes are computed once;
     candidates stay in address order *)
  let shaped = List.map (fun fb -> (fb, shape fb)) (Context.simple_funcs ctx) in
  let bucket = Hashtbl.create 256 in
  List.iter
    (fun (_, h) ->
      Hashtbl.replace bucket h (1 + Option.value ~default:0 (Hashtbl.find_opt bucket h)))
    shaped;
  let candidates =
    List.filter_map (fun (fb, h) -> if Hashtbl.find bucket h > 1 then Some fb else None) shaped
  in
  let pass () =
    let seen = Hashtbl.create 256 in
    let folded_now = ref 0 in
    List.iter
      (fun fb ->
        if fb.Bfunc.folded_into = None then begin
          let key = normalize canon fb in
          match Hashtbl.find_opt seen key with
          | Some (sf : Bfunc.t) when sf != fb ->
              fb.folded_into <- Some sf.fb_name;
              Hashtbl.replace canon_map fb.fb_name sf.fb_name;
              sf.exec_count <- sf.exec_count + fb.exec_count;
              incr folded_now;
              bytes_saved := !bytes_saved + fb.fb_size;
              fb.touched <- true;
              sf.touched <- true
          | Some _ -> ()
          | None -> Hashtbl.add seen key fb
        end)
      candidates;
    !folded_now
  in
  let rounds = ref 0 in
  let continue_ = ref (candidates <> []) in
  while !continue_ && !rounds < 5 do
    incr rounds;
    let f = pass () in
    folded_total := !folded_total + f;
    continue_ := f > 0
  done;
  (* retarget all call/tail-call references to survivors; with nothing
     folded, [canon] is the identity and there is nothing to retarget *)
  if !folded_total > 0 then
    Context.iter_funcs ctx (fun fb ->
        let fix (i : minsn) =
          match i.op with
          | Bolt_isa.Insn.Call (Bolt_isa.Insn.Sym (s, a)) when canon s <> s ->
              i.op <- Bolt_isa.Insn.Call (Bolt_isa.Insn.Sym (canon s, a))
          | Bolt_isa.Insn.Jmp (Bolt_isa.Insn.Sym (s, a), w) when canon s <> s ->
              i.op <- Bolt_isa.Insn.Jmp (Bolt_isa.Insn.Sym (canon s, a), w)
          | Bolt_isa.Insn.Lea (r, Bolt_isa.Insn.Sym (s, a)) when canon s <> s ->
              i.op <- Bolt_isa.Insn.Lea (r, Bolt_isa.Insn.Sym (canon s, a))
          | _ -> ()
        in
        iter_layout fb (fun _ b ->
            List.iter fix b.insns;
            match b.term with
            | T_condtail (c, fn, fall) when canon fn <> fn ->
                b.term <- T_condtail (c, canon fn, fall)
            | _ -> ());
        List.iter fix fb.raw_insns);
  let candidates = List.length candidates in
  Context.logf ctx "icf: %d functions folded, %d bytes saved (%d candidates, %d rounds)"
    !folded_total !bytes_saved candidates !rounds;
  { folded = !folded_total; bytes_saved = !bytes_saved; candidates; rounds = !rounds }
