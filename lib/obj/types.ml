(* Core record types of the BELF binary container: sections, symbols,
   relocations, frame (CFI) descriptors and exception (LSDA) tables.

   The container plays the role ELF plays for the real BOLT: executables
   carry a symbol table, optional relocations (the linker's --emit-relocs
   analog), frame-unwind information and per-function exception tables.
   Everything a post-link rewriter must parse, preserve and update lives
   here. *)

type section_kind = Text | Rodata | Data | Bss

let section_kind_code = function Text -> 0 | Rodata -> 1 | Data -> 2 | Bss -> 3

let section_kind_of_code = function
  | 0 -> Text
  | 1 -> Rodata
  | 2 -> Data
  | 3 -> Bss
  | n -> raise (Buf.Corrupt (Printf.sprintf "section kind %d" n))

type section = {
  sec_name : string;
  sec_kind : section_kind;
  sec_addr : int; (* virtual address; 0 in relocatable objects *)
  sec_data : Bytes.t; (* empty for Bss *)
  sec_size : int; (* = Bytes.length sec_data except for Bss *)
}

type sym_kind = Func | Object | Notype

let sym_kind_code = function Func -> 0 | Object -> 1 | Notype -> 2

let sym_kind_of_code = function
  | 0 -> Func
  | 1 -> Object
  | 2 -> Notype
  | n -> raise (Buf.Corrupt (Printf.sprintf "symbol kind %d" n))

type binding = Local | Global

type symbol = {
  sym_name : string;
  sym_kind : sym_kind;
  sym_bind : binding;
  sym_section : string; (* "" for undefined symbols *)
  sym_value : int; (* offset within section (objects) or address (exes) *)
  sym_size : int;
}

(* Relocation kinds.  [Rel] kinds are pc-relative, measured from the end of
   the instruction (so the relocated field holds target - end_of_insn). *)
type reloc_kind = Abs32 | Abs64 | Rel32 | Rel8

let reloc_kind_code = function Abs32 -> 0 | Abs64 -> 1 | Rel32 -> 2 | Rel8 -> 3

let reloc_kind_of_code = function
  | 0 -> Abs32
  | 1 -> Abs64
  | 2 -> Rel32
  | 3 -> Rel8
  | n -> raise (Buf.Corrupt (Printf.sprintf "reloc kind %d" n))

type reloc = {
  rel_section : string; (* section whose bytes are patched *)
  rel_offset : int; (* offset of the patched field within that section *)
  rel_kind : reloc_kind;
  rel_sym : string; (* target symbol (possibly a section symbol) *)
  rel_addend : int;
  rel_end : int; (* for Rel kinds: offset of insn end relative to field *)
  rel_pic_base : string;
      (* when nonempty: the patched field holds S(sym)+addend - S(base),
         a PIC jump-table difference.  The linker resolves these and then
         DROPS them even under --emit-relocs, reproducing the "relative
         offsets for PIC jump tables are removed by the linker" gap that
         forces BOLT to rediscover such tables by disassembly. *)
}

(* CFI operations, attached to code offsets within a function.  [Save]
   records that a callee-saved register was stored at [fp - slot]; the
   unwinder replays the ops up to the faulting offset to learn the frame
   state.  [Set_state] lets a rewriter re-establish a complete state at a
   block boundary after reordering, mirroring how BOLT regenerates DWARF
   CFI from its annotations. *)

type cfi_state = {
  cfa_established : bool; (* fp chain set up *)
  cfa_locals : int; (* bytes of locals below fp *)
  cfa_saved : (Bolt_isa.Reg.t * int) list; (* reg, slot offset below fp *)
}

let initial_cfi_state = { cfa_established = false; cfa_locals = 0; cfa_saved = [] }

type cfi_op =
  | Cfi_establish (* push fp; mov fp, sp done *)
  | Cfi_def_locals of int
  | Cfi_save of Bolt_isa.Reg.t * int
  | Cfi_restore of Bolt_isa.Reg.t
  | Cfi_teardown (* epilogue: frame gone *)
  | Cfi_set_state of cfi_state

type fde = {
  fde_func : string; (* symbol name; "" if anonymous *)
  fde_addr : int; (* function start (address in exes, sec offset in objs) *)
  fde_size : int;
  fde_cfi : (int * cfi_op) list; (* sorted by code offset *)
}

(* Per-function line-number table, the .debug_line analog: [entries] maps a
   code offset (function-relative) to the source file/line that produced
   the instruction there.  A rewriter that moves code must regenerate the
   offsets, which is what the paper's -update-debug-sections does. *)
type dbg = {
  dbg_func : string;
  dbg_addr : int; (* function start: section offset in objects, address in exes *)
  dbg_entries : (int * string * int) list; (* offset, file, line *)
}

(* Exception table: ranges of code covered by a landing pad, offsets
   relative to function start. *)
type lsda_entry = {
  lsda_start : int;
  lsda_len : int;
  lsda_pad : int; (* landing pad offset within the function *)
  lsda_action : int;
}

type lsda = { lsda_func : string; lsda_fn_addr : int; lsda_entries : lsda_entry list }

(* The frame state after one op. *)
let cfi_apply st = function
  | Cfi_establish -> { st with cfa_established = true }
  | Cfi_def_locals n -> { st with cfa_locals = n }
  | Cfi_save (r, slot) -> { st with cfa_saved = st.cfa_saved @ [ (r, slot) ] }
  | Cfi_restore r ->
      { st with cfa_saved = List.filter (fun (r', _) -> r' <> r) st.cfa_saved }
  | Cfi_teardown -> initial_cfi_state
  | Cfi_set_state s -> s

(* Applies [ops] in offset order up to and including [off]. *)
let cfi_state_at ops off =
  List.fold_left
    (fun st (o, op) -> if o <= off then cfi_apply st op else st)
    initial_cfi_state ops

let cfi_state_equal a b =
  a == b
  || a.cfa_established = b.cfa_established
     && a.cfa_locals = b.cfa_locals
     && (a.cfa_saved == b.cfa_saved
        || List.sort compare a.cfa_saved = List.sort compare b.cfa_saved)
