(* The BISA assembler: structured instruction streams to relocatable
   BELF objects.

   Responsibilities mirroring a real assembler:

   - branch relaxation: direct branches to labels within the same function
     start in their 2-byte form and are widened to the 32-bit form only
     when the displacement demands it (the fixpoint is monotone);
   - relocation emission for anything that cannot be resolved locally:
     calls and jumps to other functions (when each function gets its own
     section), absolute references to globals and jump tables, and
     PIC jump-table difference entries;
   - deliberately resolving what a real compiler resolves internally:
     with [u_function_sections = false] all functions of a unit share one
     .text section and cross-function calls inside the unit are patched at
     assembly time with NO relocation records, reproducing the invisible
     local-call references the BOLT paper calls out;
   - frame (CFI) and exception (LSDA) table generation from inline
     annotations. *)

open Bolt_isa
open Bolt_obj
open Types

type aitem =
  | A_label of string
  | A_insn of Insn.t
  | A_insn_lp of Insn.t * string (* instruction covered by a landing pad *)
  | A_cfi of cfi_op
  | A_align of int
  | A_loc of string * int (* current source file/line for following insns *)

type afunc = {
  af_name : string;
  af_global : bool;
  af_align : int;
  af_emit_fde : bool; (* hand-written assembly may omit frame info *)
  af_body : aitem list;
}

type ditem =
  | D_label of string * bool (* name, global *)
  | D_quad of Insn.value
  | D_quad_pic of string * int * string (* target sym, addend, base label *)
  | D_space of int
  | D_align of int

type unit_ = {
  u_funcs : afunc list;
  u_rodata : ditem list;
  u_data : ditem list;
  u_bss : (string * int * bool) list; (* name, size, global *)
  u_function_sections : bool;
}

let empty_unit =
  { u_funcs = []; u_rodata = []; u_data = []; u_bss = []; u_function_sections = true }

exception Asm_error of string

let err fmt = Fmt.kstr (fun s -> raise (Asm_error s)) fmt

(* ---- per-function assembly ----

   A function's items are sized once into an int array: an instruction's
   encoded size at its current width, or [-a] for an [A_align a] pad,
   whose size depends on where it lands.  Local branches start narrow.
   Each relaxation round recomputes every offset from the current sizes,
   then widens every narrow branch whose displacement no longer fits,
   and rounds repeat until one widens nothing.  The rounds stay whole: a
   pad can shrink when an earlier branch widens, so widening one branch
   at a time could settle on a different fixpoint. *)

type fout = {
  fo_bytes : Bytes.t;
  fo_size : int;
  fo_relocs : (int * reloc_kind * string * int * int) list;
      (* field offset (fn-relative), kind, sym, addend, rel_end *)
  fo_cfi : (int * cfi_op) list;
  fo_lsda : lsda_entry list; (* pads resolved to local labels *)
  fo_lsda_sym : (int * int * string) list; (* start, len, pad label *)
  fo_dbg : (int * string * int) list;
  fo_labels : (string * int) list; (* fn-local labels, for tests *)
}

(* A laid-out item stream: the first [l_n] items of [l_items]. *)
type laid = {
  l_items : aitem array;
  l_n : int;
  l_labels : (string, int) Hashtbl.t; (* local label -> item index *)
  l_target : int array; (* a local branch's label item, else -1 *)
  l_size : int array; (* encoded size, or -a for an A_align a pad *)
  l_wide : Bytes.t; (* '\001' for a branch in its 32-bit form *)
  l_offsets : int array; (* l_n + 1 entries *)
}

let with_width insn w =
  match insn with
  | Insn.Jmp (v, w') when w' <> w -> Insn.Jmp (v, w)
  | Insn.Jcc (c, v, w') when w' <> w -> Insn.Jcc (c, v, w)
  | i -> i

let insn_of = function
  | A_insn insn | A_insn_lp (insn, _) -> insn
  | _ -> invalid_arg "Asm.insn_of"

let layout_items ~name items n =
  let labels = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    match items.(i) with
    | A_label l ->
        if Hashtbl.mem labels l then err "duplicate label %s in %s" l name;
        Hashtbl.add labels l i
    | _ -> ()
  done;
  (* Branches to non-local symbols are always wide (they need a 32-bit
     relocation); branches to local labels start narrow. *)
  let target = Array.make n (-1) in
  let size = Array.make n 0 in
  let wide = Bytes.make n '\000' in
  let narrow = ref [] in
  for i = n - 1 downto 0 do
    match items.(i) with
    | A_label _ | A_cfi _ | A_loc _ -> ()
    | A_align a -> if a > 1 then size.(i) <- -a
    | A_insn insn | A_insn_lp (insn, _) ->
        let w =
          match insn with
          | Insn.Jmp (Sym (s, _), _) | Insn.Jcc (_, Sym (s, _), _) -> (
              match Hashtbl.find_opt labels s with
              | Some t ->
                  target.(i) <- t;
                  narrow := i :: !narrow;
                  Insn.W8
              | None -> Insn.W32)
          | Insn.Jmp (_, w) | Insn.Jcc (_, _, w) -> w
          | _ -> Insn.W8
        in
        if w = Insn.W32 then Bytes.set wide i '\001';
        size.(i) <- Insn.size (with_width insn w)
  done;
  let offsets = Array.make (n + 1) 0 in
  let compute_offsets () =
    let off = ref 0 in
    for i = 0 to n - 1 do
      offsets.(i) <- !off;
      let s = size.(i) in
      off := !off + if s >= 0 then s else (-s - (!off mod -s)) mod -s
    done;
    offsets.(n) <- !off
  in
  let narrow = Array.of_list !narrow in
  let m = ref (Array.length narrow) in
  let changed = ref true in
  while !changed do
    changed := false;
    compute_offsets ();
    (* widen against this round's offsets; the still-narrow branches
       stay packed at the front of [narrow] *)
    let kept = ref 0 in
    for k = 0 to !m - 1 do
      let i = narrow.(k) in
      let insn = insn_of items.(i) in
      let a = match insn with Insn.Jmp (Sym (_, a), _) | Insn.Jcc (_, Sym (_, a), _) -> a | _ -> 0 in
      let rel = offsets.(target.(i)) + a - (offsets.(i) + size.(i)) in
      if Codec.fits_i8 rel then begin
        narrow.(!kept) <- i;
        incr kept
      end
      else begin
        Bytes.set wide i '\001';
        size.(i) <- Insn.size (with_width insn Insn.W32);
        changed := true
      end
    done;
    m := !kept
  done;
  {
    l_items = items;
    l_n = n;
    l_labels = labels;
    l_target = target;
    l_size = size;
    l_wide = wide;
    l_offsets = offsets;
  }

let layout_function f =
  let items = Array.of_list f.af_body in
  layout_items ~name:f.af_name items (Array.length items)

(* [resolve_in_unit] maps a symbol defined elsewhere in the same section to
   its offset (used when a unit is assembled without function sections). *)
let assemble_laid ?(resolve_in_unit = fun _ -> None) ~base (l : laid) =
  let n = l.l_n and items = l.l_items and offsets = l.l_offsets in
  let label_idx = l.l_labels in
  let size = offsets.(n) in
  let bytes = Bytes.make size '\x02' (* single-byte nops *) in
  let relocs = ref [] in
  let cfi = ref [] in
  let lsda = ref [] in
  let dbg = ref [] in
  let cur_loc = ref None in
  let note_loc off =
    match !cur_loc with
    | None -> ()
    | Some (f, l) -> (
        match !dbg with
        | (_, f', l') :: _ when f' = f && l' = l -> ()
        | _ -> dbg := (off, f, l) :: !dbg)
  in
  let lsda_sym = ref [] in
  let lsda_open = ref None (* (label, start) of the range being grown *) in
  let close_lsda upto =
    match !lsda_open with
    | None -> ()
    | Some (pad_label, start) ->
        lsda_sym := (start, upto - start, pad_label) :: !lsda_sym;
        (match Hashtbl.find_opt label_idx pad_label with
        | Some i ->
            lsda :=
              {
                lsda_start = start;
                lsda_len = upto - start;
                lsda_pad = offsets.(i);
                lsda_action = 1;
              }
              :: !lsda
        | None ->
            (* pad lives outside this fragment; the caller resolves it *)
            ());
        lsda_open := None
  in
  let local_target s a =
    match Hashtbl.find_opt label_idx s with
    | Some i -> Some (offsets.(i) + a)
    | None -> ( match resolve_in_unit s with Some o -> Some (o - base + a) | None -> None)
  in
  let emit_insn i insn =
    let off = offsets.(i) in
    let insn =
      with_width insn (if Bytes.get l.l_wide i = '\000' then Insn.W8 else Insn.W32)
    in
    let isize = l.l_size.(i) in
    let end_of = off + isize in
    (* Resolve or relocate the symbolic operand, if any. *)
    let resolved =
      match Insn.value insn with
      | Some (Insn.Sym (s, a)) -> (
          match Codec.operand_kind insn with
          | Codec.Op_none -> insn
          | Codec.Op_rel (fo, fw) -> (
              let t =
                if l.l_target.(i) >= 0 then Some (offsets.(l.l_target.(i)) + a)
                else local_target s a
              in
              match t with
              | Some t -> Insn.with_value insn (Insn.Imm (t - end_of))
              | None ->
                  let kind = if fw = 1 then Rel8 else Rel32 in
                  relocs := (off + fo, kind, s, a, isize - fo) :: !relocs;
                  Insn.with_value insn (Insn.Imm 0))
          | Codec.Op_abs (fo, fw) ->
              let kind = if fw = 8 then Abs64 else Abs32 in
              relocs := (off + fo, kind, s, a, 0) :: !relocs;
              Insn.with_value insn (Insn.Imm 0))
      | _ -> insn
    in
    ignore (Codec.encode_into bytes off resolved)
  in
  for i = 0 to n - 1 do
    match items.(i) with
    | A_label _ -> ()
    | A_cfi op -> cfi := (offsets.(i), op) :: !cfi
    | A_align _ ->
        (* pad with single-byte nops: bytes are pre-filled with 0x02 *)
        ()
    | A_loc (f, l) -> cur_loc := Some (f, l)
    | A_insn insn ->
        close_lsda offsets.(i);
        note_loc offsets.(i);
        emit_insn i insn
    | A_insn_lp (insn, pad) ->
        (match !lsda_open with
        | Some (p, _) when p = pad -> ()
        | Some _ ->
            close_lsda offsets.(i);
            lsda_open := Some (pad, offsets.(i))
        | None -> lsda_open := Some (pad, offsets.(i)));
        note_loc offsets.(i);
        emit_insn i insn
  done;
  close_lsda size;
  let labels =
    Hashtbl.fold (fun l i acc -> (l, offsets.(i)) :: acc) label_idx []
  in
  {
    fo_bytes = bytes;
    fo_size = size;
    fo_relocs = List.rev !relocs;
    fo_cfi = List.rev !cfi;
    fo_lsda = List.rev !lsda;
    fo_lsda_sym = List.rev !lsda_sym;
    fo_dbg = List.rev !dbg;
    fo_labels = labels;
  }

(* Assemble the first [n] items of [items] as the function [name]. *)
let assemble_items ?resolve_in_unit ~base ~name items n =
  assemble_laid ?resolve_in_unit ~base (layout_items ~name items n)

let assemble_function ?resolve_in_unit ~base f =
  assemble_laid ?resolve_in_unit ~base (layout_function f)

(* ---- data sections ---- *)

(* [resolve] maps a function-internal label (e.g. a jump-table target) to
   (function symbol, offset) so data references can be expressed as
   relocations against the function symbol with an addend — exactly how a
   real assembler lowers .L labels away. *)
let assemble_data ?(resolve = fun _ -> None) ~sec_name items =
  let buf = Buffer.create 256 in
  let relocs = ref [] in
  let syms = ref [] in
  List.iter
    (fun it ->
      let off = Buffer.length buf in
      match it with
      | D_label (name, global) -> syms := (name, off, global) :: !syms
      | D_quad (Insn.Imm v) -> Buffer.add_int64_le buf (Int64.of_int v)
      | D_quad (Insn.Sym (s, a)) ->
          let s, a =
            match resolve s with Some (fn, off') -> (fn, off' + a) | None -> (s, a)
          in
          relocs :=
            {
              rel_section = sec_name;
              rel_offset = off;
              rel_kind = Abs64;
              rel_sym = s;
              rel_addend = a;
              rel_end = 0;
              rel_pic_base = "";
            }
            :: !relocs;
          Buffer.add_string buf (String.make 8 '\x00')
      | D_quad_pic (s, a, base) ->
          let s, a =
            match resolve s with Some (fn, off') -> (fn, off' + a) | None -> (s, a)
          in
          relocs :=
            {
              rel_section = sec_name;
              rel_offset = off;
              rel_kind = Abs64;
              rel_sym = s;
              rel_addend = a;
              rel_end = 0;
              rel_pic_base = base;
            }
            :: !relocs;
          Buffer.add_string buf (String.make 8 '\x00')
      | D_space n -> Buffer.add_string buf (String.make n '\x00')
      | D_align a ->
          let pad = (a - (off mod a)) mod a in
          Buffer.add_string buf (String.make pad '\x00'))
    items;
  (Bytes.of_string (Buffer.contents buf), List.rev !relocs, List.rev !syms)

(* ---- whole unit ---- *)

let assemble (u : unit_) : Objfile.t =
  let sections = ref [] in
  let fn_labels : (string, string * int) Hashtbl.t = Hashtbl.create 64 in
  let symbols = ref [] in
  let relocs = ref [] in
  let fdes = ref [] in
  let lsdas = ref [] in
  let dbgs = ref [] in
  let add_func_output ~sec ~base f (out : fout) =
    List.iter
      (fun (l, off) -> Hashtbl.replace fn_labels l (f.af_name, off))
      out.fo_labels;
    symbols :=
      {
        sym_name = f.af_name;
        sym_kind = Func;
        sym_bind = (if f.af_global then Global else Local);
        sym_section = sec;
        sym_value = base;
        sym_size = out.fo_size;
      }
      :: !symbols;
    List.iter
      (fun (off, kind, s, a, rel_end) ->
        relocs :=
          {
            rel_section = sec;
            rel_offset = base + off;
            rel_kind = kind;
            rel_sym = s;
            rel_addend = a;
            rel_end;
            rel_pic_base = "";
          }
          :: !relocs)
      out.fo_relocs;
    if f.af_emit_fde then
      fdes :=
        { fde_func = f.af_name; fde_addr = base; fde_size = out.fo_size; fde_cfi = out.fo_cfi }
        :: !fdes;
    if out.fo_lsda <> [] then
      lsdas := { lsda_func = f.af_name; lsda_fn_addr = base; lsda_entries = out.fo_lsda } :: !lsdas;
    if out.fo_dbg <> [] then
      dbgs := { dbg_func = f.af_name; dbg_addr = base; dbg_entries = out.fo_dbg } :: !dbgs
  in
  if u.u_function_sections then
    List.iter
      (fun f ->
        let out = assemble_function ~base:0 f in
        let sec = ".text." ^ f.af_name in
        sections :=
          {
            sec_name = sec;
            sec_kind = Text;
            sec_addr = 0;
            sec_data = out.fo_bytes;
            sec_size = out.fo_size;
          }
          :: !sections;
        add_func_output ~sec ~base:0 f out)
      u.u_funcs
  else begin
    (* Single .text: lay out functions sequentially, then resolve
       cross-function references inside the unit without relocations. *)
    let align a off = ((off + a - 1) / a) * a in
    let bases = Hashtbl.create 16 in
    let off = ref 0 in
    let laid = List.map (fun f -> (f, layout_function f)) u.u_funcs in
    List.iter
      (fun (f, l) ->
        off := align (max 1 f.af_align) !off;
        Hashtbl.add bases f.af_name !off;
        off := !off + l.l_offsets.(l.l_n))
      laid;
    let total = !off in
    let text = Bytes.make total '\x02' in
    let resolve_in_unit s = Hashtbl.find_opt bases s in
    List.iter
      (fun (f, l) ->
        let base = Hashtbl.find bases f.af_name in
        let out = assemble_laid ~resolve_in_unit ~base l in
        Bytes.blit out.fo_bytes 0 text base out.fo_size;
        add_func_output ~sec:".text" ~base f out)
      laid;
    sections :=
      [ { sec_name = ".text"; sec_kind = Text; sec_addr = 0; sec_data = text; sec_size = total } ]
  end;
  let add_data ~name ~kind items =
    if items <> [] then begin
      let resolve l = Hashtbl.find_opt fn_labels l in
      let data, rs, syms = assemble_data ~resolve ~sec_name:name items in
      sections :=
        { sec_name = name; sec_kind = kind; sec_addr = 0; sec_data = data; sec_size = Bytes.length data }
        :: !sections;
      relocs := List.rev_append (List.rev rs) !relocs;
      List.iter
        (fun (s, off, global) ->
          symbols :=
            {
              sym_name = s;
              sym_kind = Object;
              sym_bind = (if global then Global else Local);
              sym_section = name;
              sym_value = off;
              sym_size = 0;
            }
            :: !symbols)
        syms
    end
  in
  add_data ~name:".rodata" ~kind:Rodata u.u_rodata;
  add_data ~name:".data" ~kind:Data u.u_data;
  if u.u_bss <> [] then begin
    let off = ref 0 in
    let syms =
      List.map
        (fun (name, size, global) ->
          let o = !off in
          off := !off + size;
          (name, o, size, global))
        u.u_bss
    in
    sections :=
      { sec_name = ".bss"; sec_kind = Bss; sec_addr = 0; sec_data = Bytes.empty; sec_size = !off }
      :: !sections;
    List.iter
      (fun (name, o, size, global) ->
        symbols :=
          {
            sym_name = name;
            sym_kind = Object;
            sym_bind = (if global then Global else Local);
            sym_section = ".bss";
            sym_value = o;
            sym_size = size;
          }
          :: !symbols)
      syms
  end;
  {
    Objfile.kind = Objfile.Object;
    entry = 0;
    build_id = "";
    sections = List.rev !sections;
    symbols = List.rev !symbols;
    relocs = List.rev !relocs;
    fdes = List.rev !fdes;
    lsdas = List.rev !lsdas;
    dbgs = List.rev !dbgs;
    fingerprints = [];
  }
