(* Static linker for BELF objects.

   Produces an executable with the properties BOLT depends on:

   - the symbol table is always preserved (function discovery);
   - with [emit_relocs] the linker keeps its relocations in the output,
     which is what enables BOLT's relocations mode — except PIC jump-table
     difference entries, which are resolved and then dropped, and
     assembler-resolved local calls, which never existed as relocations;
   - calls to [f$plt] symbols get a synthesized PLT stub (a [jmp_mem]
     through a GOT slot) so the plt pass has indirection to remove;
   - optional linker-level identical-code folding over function sections,
     deliberately more conservative than BOLT's (no jump tables, no EH);
   - an optional explicit function order (the HFSort-at-link-time baseline
     of the paper's evaluation).

   Layout units are input sections, like a real linker: function
   reordering is only possible for objects assembled one-function-per-
   section. *)

open Bolt_obj
open Types

type options = {
  emit_relocs : bool;
  icf : bool;
  func_order : string list option;
  entry : string;
}

let default_options =
  { emit_relocs = false; icf = false; func_order = None; entry = "main" }

exception Link_error of string

let err fmt = Fmt.kstr (fun s -> raise (Link_error s)) fmt

(* An input section together with its origin and attached metadata. *)
type chunk = {
  ch_obj : int;
  ch_name : string; (* input section name *)
  ch_kind : section_kind;
  ch_data : Bytes.t;
  ch_size : int;
  ch_syms : symbol list; (* symbols defined in this section *)
  ch_relocs : reloc list; (* relocations patching this section *)
  ch_fdes : fde list;
  ch_lsdas : lsda list;
  ch_dbgs : dbg list;
  mutable ch_out_off : int; (* assigned offset within the output section *)
  mutable ch_folded_into : int option; (* ICF: index of surviving chunk *)
}

type stats = {
  mutable icf_folded : int;
  mutable icf_bytes_saved : int;
  mutable plt_stubs : int;
}

let align a off = if a <= 1 then off else (off + a - 1) / a * a

(* [bucket key xs] groups [xs] under each of its keys, keeping the order
   of [xs] inside a bucket, and returns the lookup: a key's bucket, []
   when it has none. *)
let bucket key xs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun x ->
      List.iter
        (fun k ->
          Hashtbl.replace tbl k
            (x :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
        (key x))
    (List.rev xs);
  fun k -> Option.value (Hashtbl.find_opt tbl k) ~default:[]

(* One chunk per input section, with the symbols and relocations of its
   name and, for text sections, the FDEs, LSDAs and line tables of the
   functions it defines.  Each of an object's lists is bucketed once by
   section name: a name used twice reads the same buckets, and a record
   goes under every section that holds a [Func] symbol of its
   function. *)
let collect_chunks objs =
  let chunks = ref [] in
  List.iteri
    (fun oi (o : Objfile.t) ->
      let syms_in = bucket (fun sy -> [ sy.sym_section ]) o.symbols in
      let relocs_in = bucket (fun r -> [ r.rel_section ]) o.relocs in
      let funcs_named =
        bucket (fun sy -> if sy.sym_kind = Func then [ sy.sym_name ] else []) o.symbols
      in
      let homes fn =
        List.sort_uniq String.compare
          (List.map (fun sy -> sy.sym_section) (funcs_named fn))
      in
      let fdes_in = bucket (fun f -> homes f.fde_func) o.fdes in
      let lsdas_in = bucket (fun l -> homes l.lsda_func) o.lsdas in
      let dbgs_in = bucket (fun d -> homes d.dbg_func) o.dbgs in
      List.iter
        (fun (s : section) ->
          let syms = syms_in s.sec_name in
          let relocs = relocs_in s.sec_name in
          let fdes, lsdas, dbgs =
            if s.sec_kind = Text then
              (fdes_in s.sec_name, lsdas_in s.sec_name, dbgs_in s.sec_name)
            else ([], [], [])
          in
          chunks :=
            {
              ch_obj = oi;
              ch_name = s.sec_name;
              ch_kind = s.sec_kind;
              ch_data = s.sec_data;
              ch_size = s.sec_size;
              ch_syms = syms;
              ch_relocs = relocs;
              ch_fdes = fdes;
              ch_lsdas = lsdas;
              ch_dbgs = dbgs;
              ch_out_off = -1;
              ch_folded_into = None;
            }
            :: !chunks)
        o.sections)
    objs;
  Array.of_list (List.rev !chunks)

(* ---- linker ICF ---- *)

(* Function sections eligible for folding: single function symbol, no EH,
   and nothing in the program points into the middle of the function
   (a reloc against the function symbol with a nonzero addend indicates a
   jump table or similar). *)
let run_icf chunks stats =
  let mid_referenced = Hashtbl.create 64 in
  Array.iter
    (fun ch ->
      List.iter
        (fun r -> if r.rel_addend <> 0 then Hashtbl.replace mid_referenced r.rel_sym ())
        ch.ch_relocs)
    chunks;
  let key ch =
    let rs =
      List.map
        (fun r ->
          (r.rel_offset, reloc_kind_code r.rel_kind, r.rel_sym, r.rel_addend, r.rel_end))
        ch.ch_relocs
    in
    (Bytes.to_string ch.ch_data, rs)
  in
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun i ch ->
      let eligible =
        ch.ch_kind = Text
        && String.length ch.ch_name > 6
        && String.sub ch.ch_name 0 6 = ".text."
        && ch.ch_lsdas = []
        && List.for_all
             (fun sy -> not (Hashtbl.mem mid_referenced sy.sym_name))
             ch.ch_syms
        && List.for_all (fun r -> r.rel_pic_base = "") ch.ch_relocs
      in
      if eligible then begin
        let k = key ch in
        match Hashtbl.find_opt seen k with
        | Some j ->
            ch.ch_folded_into <- Some j;
            stats.icf_folded <- stats.icf_folded + 1;
            stats.icf_bytes_saved <- stats.icf_bytes_saved + ch.ch_size
        | None -> Hashtbl.add seen k i
      end)
    chunks

(* ---- main entry ---- *)

let link ?(options = default_options) (objs : Objfile.t list) : Objfile.t * stats =
  let stats = { icf_folded = 0; icf_bytes_saved = 0; plt_stubs = 0 } in
  let chunks = collect_chunks objs in
  if options.icf then run_icf chunks stats;

  (* PLT discovery: every reloc target of the form f$plt. *)
  let plt_syms = Hashtbl.create 16 in
  Array.iter
    (fun ch ->
      List.iter
        (fun r ->
          let s = r.rel_sym in
          let n = String.length s in
          if n > 4 && String.sub s (n - 4) 4 = "$plt" then
            Hashtbl.replace plt_syms (String.sub s 0 (n - 4)) ())
        ch.ch_relocs)
    chunks;
  let plt_names = Hashtbl.fold (fun k () acc -> k :: acc) plt_syms [] |> List.sort compare in
  stats.plt_stubs <- List.length plt_names;

  (* Layout of .text: optionally honouring an explicit function order. *)
  let live i = chunks.(i).ch_folded_into = None in
  let text_idx = ref [] in
  Array.iteri (fun i ch -> if ch.ch_kind = Text && live i then text_idx := i :: !text_idx) chunks;
  let text_idx = List.rev !text_idx in
  let text_idx =
    match options.func_order with
    | None -> text_idx
    | Some order ->
        let by_func = Hashtbl.create 64 in
        List.iter
          (fun i ->
            List.iter
              (fun sy ->
                if sy.sym_kind = Func then Hashtbl.replace by_func sy.sym_name i)
              chunks.(i).ch_syms)
          text_idx;
        let placed = Hashtbl.create 64 in
        let first =
          List.filter_map
            (fun f ->
              match Hashtbl.find_opt by_func f with
              | Some i when not (Hashtbl.mem placed i) ->
                  Hashtbl.replace placed i ();
                  Some i
              | _ -> None)
            order
        in
        first @ List.filter (fun i -> not (Hashtbl.mem placed i)) text_idx
  in
  let text_size = ref 0 in
  List.iter
    (fun i ->
      let ch = chunks.(i) in
      text_size := align Layout.func_align !text_size;
      ch.ch_out_off <- !text_size;
      text_size := !text_size + ch.ch_size)
    text_idx;
  (* Folded chunks land on their survivor. *)
  Array.iter
    (fun ch ->
      match ch.ch_folded_into with
      | Some j -> ch.ch_out_off <- chunks.(j).ch_out_off
      | None -> ())
    chunks;

  let layout_kind kind =
    let idx = ref [] in
    Array.iteri
      (fun i ch -> if ch.ch_kind = kind && live i then idx := i :: !idx)
      chunks;
    let idx = List.rev !idx in
    let size = ref 0 in
    List.iter
      (fun i ->
        let ch = chunks.(i) in
        size := align 16 !size;
        ch.ch_out_off <- !size;
        size := !size + ch.ch_size)
      idx;
    (idx, !size)
  in
  let ro_idx, ro_size = layout_kind Rodata in
  let data_idx, data_size = layout_kind Data in
  let _bss_idx, bss_size = layout_kind Bss in

  (* Addresses. *)
  let text_addr = Layout.text_base in
  let plt_addr = align 16 (text_addr + !text_size) in
  let plt_size = 6 * List.length plt_names in
  let ro_addr = Layout.rodata_base in
  let got_addr = Layout.data_base in
  let got_size = 8 * List.length plt_names in
  let data_addr = align 16 (got_addr + got_size) in
  let bss_addr = align 16 (data_addr + data_size) in
  if plt_addr + plt_size > ro_addr then err "text segment overflow";
  if ro_addr + ro_size > got_addr then err "rodata segment overflow";

  (* Global symbol table: name -> address (and keep records for output). *)
  let addr_of_chunk ch =
    match ch.ch_kind with
    | Text -> text_addr + ch.ch_out_off
    | Rodata -> ro_addr + ch.ch_out_off
    | Data -> data_addr + ch.ch_out_off
    | Bss -> bss_addr + ch.ch_out_off
  in
  let sym_addr = Hashtbl.create 256 in
  let out_symbols = ref [] in
  let define name addr = Hashtbl.replace sym_addr name addr in
  let out_sec_name ch =
    match ch.ch_kind with
    | Text -> ".text"
    | Rodata -> ".rodata"
    | Data -> ".data"
    | Bss -> ".bss"
  in
  Array.iter
    (fun ch ->
      List.iter
        (fun sy ->
          let addr = addr_of_chunk ch + sy.sym_value in
          (if Hashtbl.mem sym_addr sy.sym_name then
             match sy.sym_bind with
             | Global -> err "duplicate symbol %s" sy.sym_name
             | Local -> err "colliding local symbol %s (must be unique program-wide)" sy.sym_name);
          define sy.sym_name addr;
          out_symbols :=
            { sy with sym_value = addr; sym_section = out_sec_name ch } :: !out_symbols)
        ch.ch_syms)
    chunks;

  (* PLT stubs and GOT slots. *)
  let plt_data = Bytes.make plt_size '\x00' in
  let got_data = Bytes.make got_size '\x00' in
  let got_relocs = ref [] in
  List.iteri
    (fun k f ->
      let stub_addr = plt_addr + (6 * k) in
      let slot_addr = got_addr + (8 * k) in
      define (f ^ "$plt") stub_addr;
      define (f ^ "$got") slot_addr;
      out_symbols :=
        {
          sym_name = f ^ "$plt";
          sym_kind = Func;
          sym_bind = Local;
          sym_section = ".plt";
          sym_value = stub_addr;
          sym_size = 6;
        }
        :: {
             sym_name = f ^ "$got";
             sym_kind = Object;
             sym_bind = Local;
             sym_section = ".got";
             sym_value = slot_addr;
             sym_size = 8;
           }
        :: !out_symbols;
      ignore
        (Bolt_isa.Codec.encode_into plt_data (6 * k)
           (Bolt_isa.Insn.Jmp_mem (Bolt_isa.Insn.Imm slot_addr)));
      (* GOT slot content: address of f, patched below once f resolves. *)
      got_relocs :=
        {
          rel_section = ".got";
          rel_offset = 8 * k;
          rel_kind = Abs64;
          rel_sym = f;
          rel_addend = 0;
          rel_end = 0;
          rel_pic_base = "";
        }
        :: !got_relocs)
    plt_names;

  (* Section-name symbols used by relocations (e.g. jump-table refs could
     use them); map input section names of each object to addresses. *)
  let lookup obj_id name =
    match Hashtbl.find_opt sym_addr name with
    | Some a -> Some a
    | None ->
        (* section symbol: find that object's chunk *)
        let found = ref None in
        Array.iter
          (fun ch ->
            if ch.ch_obj = obj_id && ch.ch_name = name && ch.ch_folded_into = None then
              found := Some (addr_of_chunk ch))
          chunks;
        !found
  in

  (* Build output section contents. *)
  let build_bytes idx total =
    let b = Bytes.make total '\x00' in
    List.iter
      (fun i ->
        let ch = chunks.(i) in
        Bytes.blit ch.ch_data 0 b ch.ch_out_off ch.ch_size)
      idx;
    b
  in
  let text_bytes = Bytes.make !text_size '\x02' in
  List.iter
    (fun i ->
      let ch = chunks.(i) in
      Bytes.blit ch.ch_data 0 text_bytes ch.ch_out_off ch.ch_size)
    text_idx;
  let ro_bytes = build_bytes ro_idx ro_size in
  let data_bytes = build_bytes data_idx data_size in

  let out_sec_for ch =
    match ch.ch_kind with
    | Text -> (".text", text_bytes, text_addr)
    | Rodata -> (".rodata", ro_bytes, ro_addr)
    | Data -> (".data", data_bytes, data_addr)
    | Bss -> (".bss", Bytes.empty, bss_addr)
  in

  (* Apply relocations. *)
  let kept_relocs = ref [] in
  let patch bytes off kind v =
    match kind with
    | Abs64 -> Bytes.set_int64_le bytes off (Int64.of_int v)
    | Abs32 | Rel32 ->
        Bytes.set bytes off (Char.chr (v land 0xff));
        Bytes.set bytes (off + 1) (Char.chr ((v asr 8) land 0xff));
        Bytes.set bytes (off + 2) (Char.chr ((v asr 16) land 0xff));
        Bytes.set bytes (off + 3) (Char.chr ((v asr 24) land 0xff))
    | Rel8 ->
        if not (Bolt_isa.Codec.fits_i8 v) then err "rel8 overflow";
        Bytes.set bytes off (Char.chr (v land 0xff))
  in
  Array.iter
    (fun ch ->
      if ch.ch_folded_into = None then
        List.iter
          (fun r ->
            let out_name, out_bytes, out_addr = out_sec_for ch in
            let field_off = ch.ch_out_off + r.rel_offset in
            let field_addr = out_addr + field_off in
            let s =
              match lookup ch.ch_obj r.rel_sym with
              | Some a -> a
              | None -> err "undefined symbol %s" r.rel_sym
            in
            let v =
              match r.rel_kind with
              | Abs64 | Abs32 ->
                  if r.rel_pic_base <> "" then
                    match lookup ch.ch_obj r.rel_pic_base with
                    | Some base -> s + r.rel_addend - base
                    | None -> err "undefined pic base %s" r.rel_pic_base
                  else s + r.rel_addend
              | Rel32 | Rel8 -> s + r.rel_addend - (field_addr + r.rel_end)
            in
            if ch.ch_kind <> Bss then patch out_bytes field_off r.rel_kind v;
            if options.emit_relocs && r.rel_pic_base = "" then
              kept_relocs :=
                { r with rel_section = out_name; rel_offset = field_off } :: !kept_relocs)
          ch.ch_relocs)
    chunks;
  (* GOT relocations. *)
  List.iter
    (fun r ->
      let s =
        match Hashtbl.find_opt sym_addr r.rel_sym with
        | Some a -> a
        | None -> err "undefined plt target %s" r.rel_sym
      in
      patch got_data r.rel_offset Abs64 s;
      if options.emit_relocs then kept_relocs := r :: !kept_relocs)
    !got_relocs;

  (* FDEs, LSDAs and line tables, rebased to addresses. *)
  let fdes = ref [] in
  let lsdas = ref [] in
  let dbgs = ref [] in
  Array.iter
    (fun ch ->
      if ch.ch_folded_into = None then begin
        List.iter
          (fun f ->
            let base =
              match Hashtbl.find_opt sym_addr f.fde_func with
              | Some a -> a
              | None -> addr_of_chunk ch + f.fde_addr
            in
            fdes := { f with fde_addr = base } :: !fdes)
          ch.ch_fdes;
        List.iter
          (fun l ->
            let base =
              match Hashtbl.find_opt sym_addr l.lsda_func with
              | Some a -> a
              | None -> addr_of_chunk ch + l.lsda_fn_addr
            in
            lsdas := { l with lsda_fn_addr = base } :: !lsdas)
          ch.ch_lsdas;
        List.iter
          (fun d ->
            let base =
              match Hashtbl.find_opt sym_addr d.dbg_func with
              | Some a -> a
              | None -> addr_of_chunk ch + d.dbg_addr
            in
            dbgs := { d with dbg_addr = base } :: !dbgs)
          ch.ch_dbgs
      end)
    chunks;

  let entry =
    match Hashtbl.find_opt sym_addr options.entry with
    | Some a -> a
    | None -> err "entry symbol %s undefined" options.entry
  in
  let sections =
    [
      { sec_name = ".text"; sec_kind = Text; sec_addr = text_addr; sec_data = text_bytes; sec_size = !text_size };
    ]
    @ (if plt_size > 0 then
         [ { sec_name = ".plt"; sec_kind = Text; sec_addr = plt_addr; sec_data = plt_data; sec_size = plt_size } ]
       else [])
    @ (if ro_size > 0 then
         [ { sec_name = ".rodata"; sec_kind = Rodata; sec_addr = ro_addr; sec_data = ro_bytes; sec_size = ro_size } ]
       else [])
    @ (if got_size > 0 then
         [ { sec_name = ".got"; sec_kind = Data; sec_addr = got_addr; sec_data = got_data; sec_size = got_size } ]
       else [])
    @ (if data_size > 0 then
         [ { sec_name = ".data"; sec_kind = Data; sec_addr = data_addr; sec_data = data_bytes; sec_size = data_size } ]
       else [])
    @
    if bss_size > 0 then
      [ { sec_name = ".bss"; sec_kind = Bss; sec_addr = bss_addr; sec_data = Bytes.empty; sec_size = bss_size } ]
    else []
  in
  ( Objfile.stamp_fingerprints
      (Objfile.stamp_build_id
         {
           Objfile.kind = Objfile.Executable;
           entry;
           build_id = "";
           sections;
           symbols = List.rev !out_symbols;
           relocs = List.rev !kept_relocs;
           fdes = List.rev !fdes;
           lsdas = List.rev !lsdas;
           dbgs = List.rev !dbgs;
           fingerprints = [];
         }),
    stats )
