(* BOLT's in-memory representation of a binary function: basic blocks of
   annotated machine instructions plus structured terminators, following
   the real tool's BinaryFunction/BinaryBasicBlock/MCInst-with-annotations
   design (§3.3, Figure 4).

   Instructions carry the annotations the paper describes: landing-pad
   (exception handler) links, source-line origins, and CFI effects.  The
   terminator is structured so fixup-branches is a by-product of emission:
   conditional branches get their polarity and an optional trailing jump
   chosen from the final layout. *)

open Bolt_isa

(* An instruction with BOLT annotations ("MCInst plus annotations"). *)
type minsn = {
  mutable op : Insn.t;
      (* branch/memory operands are Sym-bolic while in CFG form: block
         labels for intra-function control flow, symbol names otherwise *)
  mutable lp : string option; (* landing-pad block label, for calls/throws *)
  mutable loc : (string * int) option; (* source file/line *)
  mutable cfi_after : Bolt_obj.Types.cfi_op list; (* CFI effects of this insn *)
  m_off : int; (* offset in the original function; -1 when synthesized *)
}

let mk ?(lp = None) ?(loc = None) ?(cfi = []) ?(off = -1) op =
  { op; lp; loc; cfi_after = cfi; m_off = off }

type term =
  | T_jump of string (* unconditional transfer to a block *)
  | T_cond of Cond.t * string * string (* if cond then taken-label else fall-label *)
  | T_condtail of Cond.t * string * string (* conditional tail call: cond, function, fall *)
  | T_indirect of int option (* jump table index; None = unresolved *)
  | T_stop (* ret / halt / throw / direct tail call: last insn decides *)

type bb = {
  bl : string; (* function-unique label *)
  b_off : int; (* original offset, -1 for synthesized blocks *)
  mutable insns : minsn list;
  mutable term : term;
  mutable ecount : int; (* execution count from the profile *)
  mutable cfi_entry : Bolt_obj.Types.cfi_state; (* frame state on entry *)
  mutable is_lp : bool; (* block is a landing pad *)
}

(* A jump table discovered in .rodata. *)
type jt = {
  jt_addr : int;
  jt_pic : bool;
  mutable jt_targets : string array; (* block labels *)
}

type t = {
  fb_name : string;
  fb_addr : int;
  fb_size : int;
  mutable simple : bool;
  mutable why_not_simple : string;
  blocks : (string, bb) Hashtbl.t;
  mutable layout : string list; (* block order; entry first *)
  mutable entry : string;
  mutable jts : jt array;
  edge_counts : (string * string, int ref * int ref) Hashtbl.t; (* count, mispreds *)
  mutable exec_count : int; (* function entry count *)
  mutable profile_acc : float; (* fraction of flow the profile explains *)
  mutable has_eh : bool;
  mutable folded_into : string option; (* set by ICF on dropped duplicates *)
  mutable raw_insns : minsn list; (* non-simple: linear code, still relocatable *)
  mutable next_label : int; (* fresh-label counter for synthesized blocks *)
  cold_set : (string, unit) Hashtbl.t; (* blocks split into the cold fragment *)
  mutable table_unrecovered : bool;
      (* the body contains an indirect jump whose table could not be
         recovered: the cells (absolute or PIC) still aim at the original
         body, so the function must not be moved *)
}

let create ~name ~addr ~size =
  {
    fb_name = name;
    fb_addr = addr;
    fb_size = size;
    simple = true;
    why_not_simple = "";
    blocks = Hashtbl.create 16;
    layout = [];
    entry = "";
    jts = [||];
    edge_counts = Hashtbl.create 16;
    exec_count = 0;
    profile_acc = 0.0;
    has_eh = false;
    folded_into = None;
    raw_insns = [];
    next_label = 0;
    cold_set = Hashtbl.create 8;
    table_unrecovered = false;
  }

let fresh_label f prefix =
  let l = Printf.sprintf ".%s%d" prefix f.next_label in
  f.next_label <- f.next_label + 1;
  l

let add_block f (b : bb) = Hashtbl.replace f.blocks b.bl b

let mark_non_simple f why =
  f.simple <- false;
  if f.why_not_simple = "" then f.why_not_simple <- why

let block f l =
  match Hashtbl.find_opt f.blocks l with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Bfunc.block: %s has no block %s" f.fb_name l)

let block_opt f l = Hashtbl.find_opt f.blocks l

(* Normal-flow successors of a block. *)
let successors f (b : bb) =
  match b.term with
  | T_jump l -> [ l ]
  | T_cond (_, a, c) -> if a = c then [ a ] else [ a; c ]
  | T_condtail (_, _, fall) -> [ fall ]
  | T_indirect (Some k) ->
      let seen = Hashtbl.create 8 in
      Array.fold_left
        (fun acc l ->
          if Hashtbl.mem seen l then acc
          else begin
            Hashtbl.replace seen l ();
            l :: acc
          end)
        [] f.jts.(k).jt_targets
      |> List.rev
  | T_indirect None -> []
  | T_stop -> []

(* Successors including exceptional edges. *)
let successors_eh f (b : bb) =
  let normal = successors f b in
  let lps =
    List.filter_map (fun (i : minsn) -> i.lp) b.insns
    |> List.sort_uniq compare
    |> List.filter (fun l -> not (List.mem l normal))
  in
  normal @ lps

let edge_count f src dst =
  match Hashtbl.find_opt f.edge_counts (src, dst) with
  | Some (c, _) -> !c
  | None -> 0

let add_edge_count f src dst count mispreds =
  match Hashtbl.find_opt f.edge_counts (src, dst) with
  | Some (c, m) ->
      c := !c + count;
      m := !m + mispreds
  | None -> Hashtbl.add f.edge_counts (src, dst) (ref count, ref mispreds)

let set_edge_count f src dst count =
  match Hashtbl.find_opt f.edge_counts (src, dst) with
  | Some (c, _) -> c := count
  | None -> Hashtbl.add f.edge_counts (src, dst) (ref count, ref 0)

(* Size of the block as currently encoded (wide branch assumptions). *)
let block_size f (b : bb) =
  let base = List.fold_left (fun acc (i : minsn) -> acc + Insn.size i.op) 0 b.insns in
  ignore f;
  let term_size =
    match b.term with
    | T_jump _ -> 5
    | T_cond _ -> 6 + 5
    | T_condtail _ -> 6 + 5
    | T_indirect _ | T_stop -> 0
  in
  base + term_size

let has_profile f = Hashtbl.length f.edge_counts > 0 || f.exec_count > 0

let is_cold f l = Hashtbl.mem f.cold_set l
let hot_layout f = List.filter (fun l -> not (is_cold f l)) f.layout
let cold_layout f = List.filter (is_cold f) f.layout

(* Iterate blocks in layout order. *)
let iter_layout f g = List.iter (fun l -> g l (block f l)) f.layout

let pp_term ppf = function
  | T_jump l -> Fmt.pf ppf "jump %s" l
  | T_cond (c, a, b) -> Fmt.pf ppf "cond %s -> %s | %s" (Cond.name c) a b
  | T_condtail (c, fn, fall) -> Fmt.pf ppf "condtail %s -> %s | %s" (Cond.name c) fn fall
  | T_indirect (Some k) -> Fmt.pf ppf "jumptable %d" k
  | T_indirect None -> Fmt.pf ppf "indirect"
  | T_stop -> Fmt.pf ppf "stop"

(* A Figure-4 style dump of the function's CFG. *)
let pp ppf f =
  Fmt.pf ppf "Binary Function \"%s\" {@." f.fb_name;
  Fmt.pf ppf "  Address    : %#x@." f.fb_addr;
  Fmt.pf ppf "  Size       : %#x@." f.fb_size;
  Fmt.pf ppf "  IsSimple   : %b@." f.simple;
  Fmt.pf ppf "  BB Count   : %d@." (Hashtbl.length f.blocks);
  Fmt.pf ppf "  Exec Count : %d@." f.exec_count;
  Fmt.pf ppf "  Profile Acc: %.1f%%@." (100.0 *. f.profile_acc);
  Fmt.pf ppf "}@.";
  iter_layout f (fun l b ->
      Fmt.pf ppf "%s (%d instructions%s)@." l (List.length b.insns)
        (if b.is_lp then ", landing pad" else "");
      Fmt.pf ppf "  Exec Count : %d@." b.ecount;
      List.iter
        (fun (i : minsn) ->
          Fmt.pf ppf "    %a%s%s@." Insn.pp i.op
            (match i.lp with Some p -> Printf.sprintf " # handler: %s" p | None -> "")
            (match i.loc with Some (f, ln) -> Printf.sprintf " # %s:%d" f ln | None -> ""))
        b.insns;
      Fmt.pf ppf "    [%a]@." pp_term b.term;
      let succs = successors f b in
      if succs <> [] then
        Fmt.pf ppf "  Successors: %s@."
          (String.concat ", "
             (List.map
                (fun s ->
                  Printf.sprintf "%s (count: %d)" s (edge_count f l s))
                succs)))
