(* The BELF container: relocatable objects and linked executables.

   A linked executable keeps its symbol table; when the linker runs with
   [emit_relocs] it also keeps relocations, which is what enables BOLT's
   relocations mode (whole-binary function reordering).  Frame descriptors
   and exception tables ride along and must be kept consistent by any
   rewriter. *)

open Types

type kind = Object | Executable

type t = {
  kind : kind;
  entry : int; (* entry address; 0 for objects *)
  build_id : string; (* hex digest of the contents; "" when unstamped *)
  sections : section list;
  symbols : symbol list;
  relocs : reloc list;
  fdes : fde list;
  lsdas : lsda list;
  dbgs : dbg list;
  fingerprints : Fingerprint.func list; (* v5; [] when unstamped or pre-v5 *)
}

let empty kind =
  {
    kind;
    entry = 0;
    build_id = "";
    sections = [];
    symbols = [];
    relocs = [];
    fdes = [];
    lsdas = [];
    dbgs = [];
    fingerprints = [];
  }

(* Deterministic build-id: a digest of everything that defines the
   binary's behaviour — kind, entry, and each section's name/kind/addr/
   size/data.  Two identical links get identical ids; any code or layout
   change (including a BOLT rewrite) produces a new revision.  Symbols and
   metadata are deliberately excluded so a stamp never invalidates
   itself. *)
let compute_build_id t =
  let b = Buffer.create 4096 in
  Buffer.add_string b (match t.kind with Object -> "obj" | Executable -> "exe");
  Buffer.add_string b (string_of_int t.entry);
  List.iter
    (fun s ->
      Buffer.add_string b s.sec_name;
      Buffer.add_string b (string_of_int (section_kind_code s.sec_kind));
      Buffer.add_string b (string_of_int s.sec_addr);
      Buffer.add_string b (string_of_int s.sec_size);
      Buffer.add_char b '\x00';
      Buffer.add_bytes b s.sec_data)
    t.sections;
  Digest.to_hex (Digest.string (Buffer.contents b))

let stamp_build_id t = { t with build_id = compute_build_id t }

(* Structural fingerprints are derived from sections+symbols only, and the
   build-id ignores metadata, so stamping commutes with [stamp_build_id]
   and never invalidates the id. *)
let stamp_fingerprints t =
  {
    t with
    fingerprints = Fingerprint.compute ~sections:t.sections ~symbols:t.symbols;
  }

let find_section t name =
  List.find_opt (fun s -> s.sec_name = name) t.sections

let section_exn t name =
  match find_section t name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Objfile: no section %s" name)

let find_symbol t name = List.find_opt (fun s -> s.sym_name = name) t.symbols

(* Function symbols sorted by address. *)
let function_symbols t =
  List.filter (fun s -> s.sym_kind = Func && s.sym_section <> "") t.symbols
  |> List.sort (fun a b -> compare a.sym_value b.sym_value)

let section_at t addr =
  List.find_opt
    (fun s -> addr >= s.sec_addr && addr < s.sec_addr + s.sec_size)
    t.sections

(* A binary's metadata records (frame descriptors, line tables and
   exception tables) by the function start they describe, the way
   [.eh_frame_hdr] keys frame info, so every alias of a function finds
   the same records.  Build it once per binary, so per-function lookups
   stay O(1).  When two records share a start the first one in list order
   wins.  Starts are addresses in executables and section offsets in
   objects, where records of different sections can share one. *)
module Index = struct
  type t = {
    fde_at : (int, fde) Hashtbl.t;
    dbg_at : (int, dbg) Hashtbl.t;
    lsda_at : (int, lsda) Hashtbl.t;
  }

  let table start_of records =
    let tbl = Hashtbl.create (List.length records) in
    List.iter
      (fun r -> if not (Hashtbl.mem tbl (start_of r)) then Hashtbl.add tbl (start_of r) r)
      records;
    tbl

  let create o =
    {
      fde_at = table (fun f -> f.fde_addr) o.fdes;
      dbg_at = table (fun d -> d.dbg_addr) o.dbgs;
      lsda_at = table (fun l -> l.lsda_fn_addr) o.lsdas;
    }

  let fde ix start = Hashtbl.find_opt ix.fde_at start
  let dbg ix start = Hashtbl.find_opt ix.dbg_at start
  let lsda ix start = Hashtbl.find_opt ix.lsda_at start
end

let text_size t =
  List.fold_left
    (fun acc s -> if s.sec_kind = Text then acc + s.sec_size else acc)
    0 t.sections

(* ---- serialization ---- *)

let magic = "BELF"

(* v4 added [build_id] after the entry point; v5 appended the structural
   fingerprint table after the dbg records.  v3 files (no build-id) and v4
   files (no fingerprints) are still readable and load with the missing
   fields empty. *)
let version = 5

let min_version = 3

let w_section b s =
  Buf.str b s.sec_name;
  Buf.u8 b (section_kind_code s.sec_kind);
  Buf.i64 b s.sec_addr;
  Buf.i64 b s.sec_size;
  Buf.bytes b s.sec_data

let w_symbol b s =
  Buf.str b s.sym_name;
  Buf.u8 b (sym_kind_code s.sym_kind);
  Buf.u8 b (match s.sym_bind with Local -> 0 | Global -> 1);
  Buf.str b s.sym_section;
  Buf.i64 b s.sym_value;
  Buf.i64 b s.sym_size

let w_reloc b x =
  Buf.str b x.rel_section;
  Buf.i64 b x.rel_offset;
  Buf.u8 b (reloc_kind_code x.rel_kind);
  Buf.str b x.rel_sym;
  Buf.i64 b x.rel_addend;
  Buf.u8 b x.rel_end;
  Buf.str b x.rel_pic_base

let w_cfi_op b = function
  | Cfi_establish -> Buf.u8 b 0
  | Cfi_def_locals n ->
      Buf.u8 b 1;
      Buf.i64 b n
  | Cfi_save (r, slot) ->
      Buf.u8 b 2;
      Buf.u8 b (Bolt_isa.Reg.to_int r);
      Buf.i64 b slot
  | Cfi_restore r ->
      Buf.u8 b 3;
      Buf.u8 b (Bolt_isa.Reg.to_int r)
  | Cfi_teardown -> Buf.u8 b 4
  | Cfi_set_state st ->
      Buf.u8 b 5;
      Buf.u8 b (if st.cfa_established then 1 else 0);
      Buf.i64 b st.cfa_locals;
      Buf.list b
        (fun b (r, s) ->
          Buf.u8 b (Bolt_isa.Reg.to_int r);
          Buf.i64 b s)
        st.cfa_saved

let w_fde b f =
  Buf.str b f.fde_func;
  Buf.i64 b f.fde_addr;
  Buf.i64 b f.fde_size;
  Buf.list b
    (fun b (off, op) ->
      Buf.i64 b off;
      w_cfi_op b op)
    f.fde_cfi

let w_dbg b d =
  Buf.str b d.dbg_func;
  Buf.i64 b d.dbg_addr;
  Buf.list b
    (fun b (off, file, line) ->
      Buf.i64 b off;
      Buf.str b file;
      Buf.i64 b line)
    d.dbg_entries

let w_lsda b l =
  Buf.str b l.lsda_func;
  Buf.i64 b l.lsda_fn_addr;
  Buf.list b
    (fun b e ->
      Buf.i64 b e.lsda_start;
      Buf.i64 b e.lsda_len;
      Buf.i64 b e.lsda_pad;
      Buf.i64 b e.lsda_action)
    l.lsda_entries

let to_string t =
  let b = Buf.writer () in
  Buf.add_string b magic;
  Buf.u8 b version;
  Buf.u8 b (match t.kind with Object -> 0 | Executable -> 1);
  Buf.i64 b t.entry;
  Buf.str b t.build_id;
  Buf.list b w_section t.sections;
  Buf.list b w_symbol t.symbols;
  Buf.list b w_reloc t.relocs;
  Buf.list b w_fde t.fdes;
  Buf.list b w_lsda t.lsdas;
  Buf.list b w_dbg t.dbgs;
  Buf.list b Fingerprint.write t.fingerprints;
  Buf.contents b

(* ---- decoding ---- *)

let r_section r =
  let sec_name = Buf.r_str r in
  let sec_kind = section_kind_of_code (Buf.r_u8 r) in
  let sec_addr = Buf.r_i64 r in
  let sec_size = Buf.r_i64 r in
  let sec_data = Buf.r_bytes r in
  { sec_name; sec_kind; sec_addr; sec_size; sec_data }

let r_symbol r =
  let sym_name = Buf.r_str r in
  let sym_kind = sym_kind_of_code (Buf.r_u8 r) in
  let sym_bind = if Buf.r_u8 r = 0 then Local else Global in
  let sym_section = Buf.r_str r in
  let sym_value = Buf.r_i64 r in
  let sym_size = Buf.r_i64 r in
  { sym_name; sym_kind; sym_bind; sym_section; sym_value; sym_size }

let r_reloc r =
  let rel_section = Buf.r_str r in
  let rel_offset = Buf.r_i64 r in
  let rel_kind = reloc_kind_of_code (Buf.r_u8 r) in
  let rel_sym = Buf.r_str r in
  let rel_addend = Buf.r_i64 r in
  let rel_end = Buf.r_u8 r in
  let rel_pic_base = Buf.r_str r in
  { rel_section; rel_offset; rel_kind; rel_sym; rel_addend; rel_end; rel_pic_base }

let r_cfi_op r =
  match Buf.r_u8 r with
  | 0 -> Cfi_establish
  | 1 -> Cfi_def_locals (Buf.r_i64 r)
  | 2 ->
      let reg = Bolt_isa.Reg.of_int (Buf.r_u8 r) in
      Cfi_save (reg, Buf.r_i64 r)
  | 3 -> Cfi_restore (Bolt_isa.Reg.of_int (Buf.r_u8 r))
  | 4 -> Cfi_teardown
  | 5 ->
      let cfa_established = Buf.r_u8 r = 1 in
      let cfa_locals = Buf.r_i64 r in
      let cfa_saved =
        Buf.r_list r (fun r ->
            let reg = Bolt_isa.Reg.of_int (Buf.r_u8 r) in
            (reg, Buf.r_i64 r))
      in
      Cfi_set_state { cfa_established; cfa_locals; cfa_saved }
  | n -> raise (Buf.Corrupt (Printf.sprintf "cfi op %d" n))

let r_fde r =
  let fde_func = Buf.r_str r in
  let fde_addr = Buf.r_i64 r in
  let fde_size = Buf.r_i64 r in
  let fde_cfi =
    Buf.r_list r (fun r ->
        let off = Buf.r_i64 r in
        (off, r_cfi_op r))
  in
  { fde_func; fde_addr; fde_size; fde_cfi }

let r_dbg r =
  let dbg_func = Buf.r_str r in
  let dbg_addr = Buf.r_i64 r in
  let dbg_entries =
    Buf.r_list r (fun r ->
        let off = Buf.r_i64 r in
        let file = Buf.r_str r in
        let line = Buf.r_i64 r in
        (off, file, line))
  in
  { dbg_func; dbg_addr; dbg_entries }

let r_lsda r =
  let lsda_func = Buf.r_str r in
  let lsda_fn_addr = Buf.r_i64 r in
  let lsda_entries =
    Buf.r_list r (fun r ->
        let lsda_start = Buf.r_i64 r in
        let lsda_len = Buf.r_i64 r in
        let lsda_pad = Buf.r_i64 r in
        let lsda_action = Buf.r_i64 r in
        { lsda_start; lsda_len; lsda_pad; lsda_action })
  in
  { lsda_func; lsda_fn_addr; lsda_entries }

let of_string data =
  try
    let r = Buf.reader data in
    Buf.need r 4;
    if String.sub data 0 4 <> magic then raise (Buf.Corrupt "bad magic");
    r.pos <- 4;
    let v = Buf.r_u8 r in
    if v < min_version || v > version then
      raise (Buf.Corrupt (Printf.sprintf "bad version %d" v));
    let kind = if Buf.r_u8 r = 0 then Object else Executable in
    let entry = Buf.r_i64 r in
    let build_id = if v >= 4 then Buf.r_str r else "" in
    let sections = Buf.r_list r r_section in
    let symbols = Buf.r_list r r_symbol in
    let relocs = Buf.r_list r r_reloc in
    let fdes = Buf.r_list r r_fde in
    let lsdas = Buf.r_list r r_lsda in
    let dbgs = Buf.r_list r r_dbg in
    let fingerprints = if v >= 5 then Buf.r_list r Fingerprint.read else [] in
    { kind; entry; build_id; sections; symbols; relocs; fdes; lsdas; dbgs;
      fingerprints }
  with
  | Buf.Corrupt _ as e -> raise e
  | exn ->
      (* corrupt input must always surface as [Corrupt], never as a stray
         [Invalid_argument]/[Out_of_memory] from the decoding internals *)
      raise (Buf.Corrupt (Printexc.to_string exn))

let save path t =
  let oc = open_out_bin path in
  output_string oc (to_string t);
  close_out oc

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s
