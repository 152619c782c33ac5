(* BOLT's in-memory representation of a binary function: basic blocks of
   annotated machine instructions plus structured terminators, following
   the real tool's BinaryFunction/BinaryBasicBlock/MCInst-with-annotations
   design (§3.3, Figure 4).

   Instructions carry the annotations the paper describes: landing-pad
   (exception handler) links, source-line origins, and CFI effects.  The
   terminator is structured so fixup-branches is a by-product of emission:
   conditional branches get their polarity and an optional trailing jump
   chosen from the final layout.

   Blocks live in one array and are named by their index, the block id,
   from CFG build to emission.  Build gives the blocks ids 0..n-1 in
   offset order, so the entry is block 0; passes that synthesize blocks
   append them.  The array is append-only storage: the layout lists the
   live blocks, each once, in emission order, and every walk over a
   function's blocks goes through it.  A label survives only as each
   block's name, for the assembler, `--print-cfg` and diagnostics. *)

open Bolt_isa

(* An instruction with BOLT annotations ("MCInst plus annotations"). *)
type minsn = {
  mutable op : Insn.t;
      (* branch/memory operands are Sym-bolic while in CFG form: block
         labels for intra-function control flow, symbol names otherwise *)
  mutable lp : int option;
      (* landing-pad block id, for calls/throws; an id outside the block
         table stands for a pad outside the function (a malformed LSDA):
         the call keeps its annotation, but the pad resolves nowhere *)
  mutable loc : (string * int) option; (* source file/line *)
  mutable cfi_after : Bolt_obj.Types.cfi_op list; (* CFI effects of this insn *)
  m_off : int; (* offset in the original function; -1 when synthesized *)
}

let mk ?(lp = None) ?(loc = None) ?(cfi = []) ?(off = -1) op =
  { op; lp; loc; cfi_after = cfi; m_off = off }

type term =
  | T_jump of int (* unconditional transfer to a block *)
  | T_cond of Cond.t * int * int (* if cond then taken-block else fall-block *)
  | T_condtail of Cond.t * string * int (* conditional tail call: cond, function, fall *)
  | T_indirect of int option (* jump table index; None = unresolved *)
  | T_stop (* ret / halt / throw / direct tail call: last insn decides *)

(* A profiled out-edge: its destination block and the summed count and
   mispredictions of the records along it.  The destination need not be
   a successor: a recursive call lands on block 0. *)
type edge = { dst : int; mutable count : int; mutable mispreds : int }

type bb = {
  bl : string; (* function-unique label *)
  b_off : int; (* original offset, -1 for synthesized blocks *)
  mutable insns : minsn list;
  mutable term : term;
  mutable ecount : int; (* execution count from the profile *)
  mutable cfi_entry : Bolt_obj.Types.cfi_state; (* frame state on entry *)
  mutable is_lp : bool; (* block is a landing pad *)
  mutable out : edge list; (* profiled out-edges, newest destination first *)
  mutable cold : bool; (* split into the cold fragment *)
}

let new_block ?(off = -1) ?(ecount = 0) ~cfi_entry bl insns term =
  { bl; b_off = off; insns; term; ecount; cfi_entry; is_lp = false; out = []; cold = false }

(* A jump table discovered in .rodata. *)
type jt = {
  jt_addr : int;
  jt_pic : bool;
  jt_targets : int array; (* block ids *)
  jt_offsets : int array;
      (* each cell's original target offset: a quarantined function moves
         as a verbatim unit, so its cells shift by the same delta *)
}

type t = {
  mutable fb_id : int; (* index in [Context.funcs]; -1 until discovery *)
  fb_name : string;
  fb_addr : int;
  fb_size : int;
  mutable simple : bool;
  mutable why_not_simple : string;
  mutable blocks : bb array; (* by id; block 0 is the entry *)
  mutable layout : int array; (* the live blocks in emission order; entry first *)
  mutable jts : jt array;
  mutable exec_count : int; (* function entry count *)
  mutable profile_acc : float; (* fraction of flow the profile explains *)
  mutable has_eh : bool;
  mutable folded_into : string option; (* set by ICF on dropped duplicates *)
  mutable raw_insns : minsn list; (* non-simple: linear code, still relocatable *)
  mutable next_label : int; (* fresh-label counter for synthesized blocks *)
  mutable table_unrecovered : bool;
      (* the body contains an indirect jump whose table could not be
         recovered: the cells (absolute or PIC) still aim at the original
         body, so the function must not be moved *)
  mutable touched : bool;
      (* modified by the pass running now; set by whoever owns the
         function (its visitor), counted and cleared by [Passman.stage] *)
}

let create ~name ~addr ~size =
  {
    fb_id = -1;
    fb_name = name;
    fb_addr = addr;
    fb_size = size;
    simple = true;
    why_not_simple = "";
    blocks = [||];
    layout = [||];
    jts = [||];
    exec_count = 0;
    profile_acc = 0.0;
    has_eh = false;
    folded_into = None;
    raw_insns = [];
    next_label = 0;
    table_unrecovered = false;
    touched = false;
  }

let fresh_label f prefix =
  let l = Printf.sprintf ".%s%d" prefix f.next_label in
  f.next_label <- f.next_label + 1;
  l

(* Drop the CFG (blocks, their edges and cold flags, the layout), as a
   failed build or a quarantine must.  The jump tables stay: the
   rewriter still repoints their cells. *)
let clear_cfg f =
  f.blocks <- [||];
  f.layout <- [||]

let mark_non_simple f why =
  f.simple <- false;
  if f.why_not_simple = "" then f.why_not_simple <- why

let valid f id = id >= 0 && id < Array.length f.blocks

(* Each block id's position in the layout; -1 for a block the layout
   does not hold. *)
let positions f =
  let pos = Array.make (Array.length f.blocks) (-1) in
  Array.iteri (fun i id -> pos.(id) <- i) f.layout;
  pos

(* The built block containing offset [off] (the greatest start at or
   below it), or -1 when every block starts past it.  Built blocks hold
   ids 0.. in offset order and synthesized ones (offset -1) come after
   them, so one binary search over the table answers. *)
let containing f off =
  let lo = ref 0 and hi = ref (Array.length f.blocks) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let o = f.blocks.(mid).b_off in
    if o >= 0 && o <= off then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* The built block starting exactly at [off], or -1. *)
let starting_at f off =
  let k = containing f off in
  if k >= 0 && f.blocks.(k).b_off = off then k else -1

(* Normal-flow successors of a block, each once, in terminator order. *)
let successors f (b : bb) =
  match b.term with
  | T_jump l -> [ l ]
  | T_cond (_, a, c) -> if a = c then [ a ] else [ a; c ]
  | T_condtail (_, _, fall) -> [ fall ]
  | T_indirect (Some k) ->
      let seen = Bytes.make (Array.length f.blocks) '\000' in
      Array.fold_left
        (fun acc l ->
          if Bytes.get seen l <> '\000' then acc
          else begin
            Bytes.set seen l '\001';
            l :: acc
          end)
        [] f.jts.(k).jt_targets
      |> List.rev
  | T_indirect None -> []
  | T_stop -> []

let edge_count (b : bb) dst =
  let rec go = function
    | [] -> 0
    | e :: rest -> if e.dst = dst then e.count else go rest
  in
  go b.out

let find_edge (b : bb) dst = List.find_opt (fun e -> e.dst = dst) b.out

let add_edge_count (b : bb) dst count mispreds =
  match find_edge b dst with
  | Some e ->
      e.count <- Bolt_profile.Fdata.sat_add_int e.count count;
      e.mispreds <- Bolt_profile.Fdata.sat_add_int e.mispreds mispreds
  | None -> b.out <- { dst; count; mispreds } :: b.out

let set_edge_count (b : bb) dst count =
  match find_edge b dst with
  | Some e -> e.count <- count
  | None -> b.out <- { dst; count; mispreds = 0 } :: b.out

(* Size of the block as currently encoded (wide branch assumptions). *)
let block_size (b : bb) =
  let base = List.fold_left (fun acc (i : minsn) -> acc + Insn.size i.op) 0 b.insns in
  let term_size =
    match b.term with
    | T_jump _ -> 5
    | T_cond _ -> 6 + 5
    | T_condtail _ -> 6 + 5
    | T_indirect _ | T_stop -> 0
  in
  base + term_size

(* Some block carries a profiled edge, or the function was entered.
   Edges stay on their block when it leaves the layout. *)
let has_profile f = f.exec_count > 0 || Array.exists (fun b -> b.out <> []) f.blocks

let hot_layout f = List.filter (fun id -> not f.blocks.(id).cold) (Array.to_list f.layout)
let cold_layout f = List.filter (fun id -> f.blocks.(id).cold) (Array.to_list f.layout)

(* Iterate blocks in layout order. *)
let iter_layout f g = Array.iter (fun id -> g id f.blocks.(id)) f.layout

(* A block id's label, for printing; [?] for one outside the table. *)
let name f id = if valid f id then f.blocks.(id).bl else "?"

let pp_term f ppf = function
  | T_jump l -> Fmt.pf ppf "jump %s" (name f l)
  | T_cond (c, a, b) -> Fmt.pf ppf "cond %s -> %s | %s" (Cond.name c) (name f a) (name f b)
  | T_condtail (c, fn, fall) ->
      Fmt.pf ppf "condtail %s -> %s | %s" (Cond.name c) fn (name f fall)
  | T_indirect (Some k) -> Fmt.pf ppf "jumptable %d" k
  | T_indirect None -> Fmt.pf ppf "indirect"
  | T_stop -> Fmt.pf ppf "stop"

(* A Figure-4 style dump of the function's CFG. *)
let pp ppf f =
  Fmt.pf ppf "Binary Function \"%s\" {@." f.fb_name;
  Fmt.pf ppf "  Address    : %#x@." f.fb_addr;
  Fmt.pf ppf "  Size       : %#x@." f.fb_size;
  Fmt.pf ppf "  IsSimple   : %b@." f.simple;
  Fmt.pf ppf "  BB Count   : %d@." (Array.length f.layout);
  Fmt.pf ppf "  Exec Count : %d@." f.exec_count;
  Fmt.pf ppf "  Profile Acc: %.1f%%@." (100.0 *. f.profile_acc);
  Fmt.pf ppf "}@.";
  iter_layout f (fun _ b ->
      Fmt.pf ppf "%s (%d instructions%s)@." b.bl (List.length b.insns)
        (if b.is_lp then ", landing pad" else "");
      Fmt.pf ppf "  Exec Count : %d@." b.ecount;
      List.iter
        (fun (i : minsn) ->
          Fmt.pf ppf "    %a%s%s@." Insn.pp i.op
            (match i.lp with Some p -> Printf.sprintf " # handler: %s" (name f p) | None -> "")
            (match i.loc with Some (f, ln) -> Printf.sprintf " # %s:%d" f ln | None -> ""))
        b.insns;
      Fmt.pf ppf "    [%a]@." (pp_term f) b.term;
      let succs = successors f b in
      if succs <> [] then
        Fmt.pf ppf "  Successors: %s@."
          (String.concat ", "
             (List.map
                (fun s -> Printf.sprintf "%s (count: %d)" (name f s) (edge_count b s))
                succs)))
