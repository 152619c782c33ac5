(* Mid-level IR: a control-flow graph of basic blocks over unlimited
   integer temporaries.  This is the representation on which the compiler
   runs instrumentation, profile annotation, inlining and block layout —
   the FDO pipeline whose layout imprecision after inlining BOLT later
   corrects. *)

type temp = int
type label = int

type binop = Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr

type cmpop = Ceq | Cne | Clt | Cle | Cgt | Cge

type insn =
  | Iconst of temp * int
  | Imov of temp * temp
  | Ibin of binop * temp * temp * temp (* dst, a, b *)
  | Icmp of cmpop * temp * temp * temp (* dst = (a op b) ? 1 : 0 *)
  | Iload_g of temp * string (* global scalar *)
  | Istore_g of string * temp
  | Iload_idx of temp * string * temp (* array element, dynamic index *)
  | Istore_idx of string * temp * temp (* array, index, value *)
  | Iload_ro of temp * string * int (* const table, constant index *)
  | Iaddr of temp * string (* address of function or global *)
  | Icall of temp option * string * temp list
  | Icall_ind of temp option * temp * temp list
  | Iin of temp
  | Iout of temp
  | Iprofcnt of int (* PGO instrumentation: bump counter [n] *)
  | Ilandingpad of temp (* first insn of a landing pad: temp := exception *)

type term =
  | Tret of temp option
  | Tjmp of label
  | Tbr of cmpop * temp * temp * label * label (* if a op b then l1 else l2 *)
  | Tswitch of temp * int * label array * label
      (* switch t: dense targets for values base..base+len-1, else default *)
  | Tthrow of temp

type block = {
  mutable insns : (insn * int) list; (* insn, source line *)
  mutable term : term;
  mutable term_line : int;
  mutable lp : label option; (* innermost landing pad covering this block *)
}

type func = {
  f_name : string;
  f_module : string;
  f_params : temp list;
  f_entry : label;
  mutable f_blocks : (label * block) list; (* in creation order *)
  mutable f_ntemps : int;
  mutable f_nlabels : int;
  f_line : int;
  f_file : string;
  f_inline : bool;
  (* edge profile: filled by profile application; empty otherwise *)
  f_edge_counts : (label * label, int) Hashtbl.t;
}

type global = Gscalar of int | Garray of int | Gconst of int array

type program = {
  p_funcs : func list;
  p_globals : (string * global) list;
  (* functions defined in each module; used for direct-vs-PLT call decisions *)
  p_module_of : (string, string) Hashtbl.t;
}

let new_temp f =
  let t = f.f_ntemps in
  f.f_ntemps <- t + 1;
  t

let new_label f =
  let l = f.f_nlabels in
  f.f_nlabels <- l + 1;
  l

let block f l = List.assoc l f.f_blocks

let block_opt f l = List.assoc_opt l f.f_blocks

let add_block f l b = f.f_blocks <- f.f_blocks @ [ (l, b) ]

let successors (t : term) =
  match t with
  | Tret _ | Tthrow _ -> []
  | Tjmp l -> [ l ]
  | Tbr (_, _, _, l1, l2) -> if l1 = l2 then [ l1 ] else [ l1; l2 ]
  | Tswitch (_, _, targets, d) ->
      let seen = Hashtbl.create 8 in
      let out = ref [] in
      Array.iter
        (fun l ->
          if not (Hashtbl.mem seen l) then begin
            Hashtbl.replace seen l ();
            out := l :: !out
          end)
        targets;
      if not (Hashtbl.mem seen d) then out := d :: !out;
      List.rev !out

(* Successors including exceptional edges to landing pads. *)
let successors_eh f l =
  let b = block f l in
  let normal = successors b.term in
  match b.lp with
  | Some lp when not (List.mem lp normal) -> normal @ [ lp ]
  | _ -> normal

let predecessors f =
  let preds = Hashtbl.create 16 in
  List.iter (fun (l, _) -> Hashtbl.replace preds l []) f.f_blocks;
  List.iter
    (fun (l, _) ->
      List.iter
        (fun s -> Hashtbl.replace preds s (l :: (try Hashtbl.find preds s with Not_found -> [])))
        (successors_eh f l))
    f.f_blocks;
  preds

(* Reverse postorder over normal+exceptional edges, from the entry. *)
let rpo f =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec go l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.replace visited l ();
      List.iter go (successors_eh f l);
      order := l :: !order
    end
  in
  go f.f_entry;
  !order

let reachable f =
  let r = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace r l ()) (rpo f);
  r

let defs_of = function
  | Iconst (t, _)
  | Imov (t, _)
  | Ibin (_, t, _, _)
  | Icmp (_, t, _, _)
  | Iload_g (t, _)
  | Iload_idx (t, _, _)
  | Iload_ro (t, _, _)
  | Iaddr (t, _)
  | Iin t
  | Ilandingpad t ->
      [ t ]
  | Icall (Some t, _, _) | Icall_ind (Some t, _, _) -> [ t ]
  | Icall (None, _, _) | Icall_ind (None, _, _) -> []
  | Istore_g _ | Istore_idx _ | Iout _ | Iprofcnt _ -> []

let uses_of = function
  | Iconst _ | Iload_g _ | Iload_ro _ | Iaddr _ | Iin _ | Iprofcnt _ | Ilandingpad _ -> []
  | Imov (_, a) -> [ a ]
  | Ibin (_, _, a, b) | Icmp (_, _, a, b) -> [ a; b ]
  | Iload_idx (_, _, i) -> [ i ]
  | Istore_idx (_, i, v) -> [ i; v ]
  | Istore_g (_, t) | Iout t -> [ t ]
  | Icall (_, _, args) -> args
  | Icall_ind (_, c, args) -> c :: args

let term_uses = function
  | Tret (Some t) -> [ t ]
  | Tret None -> []
  | Tjmp _ -> []
  | Tbr (_, a, b, _, _) -> [ a; b ]
  | Tswitch (t, _, _, _) -> [ t ]
  | Tthrow t -> [ t ]

let has_call b =
  List.exists
    (fun (i, _) -> match i with Icall _ | Icall_ind _ -> true | _ -> false)
    b.insns
