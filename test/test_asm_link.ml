(* Assembler and linker unit tests: relaxation, relocations, PLT/GOT
   synthesis, linker ICF, function ordering, jump-table data resolution,
   the linker's chunk collection against [Oracle.collect_chunks],
   the per-section filtering it replaced, and the assembler against
   [Oracle.Asm], the relaxation that re-sized every item each round. *)

open Bolt_isa
open Bolt_asm.Asm
open Bolt_obj

let mk_func ?(global = true) ?(fde = true) name body =
  { af_name = name; af_global = global; af_align = 16; af_emit_fde = fde; af_body = body }

let link ?(options = Bolt_linker.Linker.default_options) objs =
  (* tests link arbitrary function sets; use the first function as entry *)
  let entry =
    List.concat_map (fun (o : Objfile.t) -> o.Objfile.symbols) objs
    |> List.find_map (fun (s : Types.symbol) ->
           if s.sym_kind = Types.Func && s.sym_name = "main" then Some "main" else None)
    |> Option.value
         ~default:
           (match
              List.concat_map (fun (o : Objfile.t) -> o.Objfile.symbols) objs
              |> List.find_opt (fun (s : Types.symbol) -> s.sym_kind = Types.Func)
            with
           | Some s -> s.sym_name
           | None -> "main")
  in
  Bolt_linker.Linker.link ~options:{ options with entry } objs

let test_relaxation_short () =
  (* a short forward branch stays 2 bytes *)
  let f =
    mk_func "f"
      [
        A_insn (Insn.Jmp (Insn.Sym ("l", 0), Insn.W8));
        A_insn (Insn.Nop 4);
        A_label "l";
        A_insn Insn.Ret;
      ]
  in
  let out = assemble_function ~base:0 f in
  Alcotest.(check int) "total size" (2 + 4 + 1) out.fo_size;
  let i, sz = Codec.decode out.fo_bytes 0 in
  Alcotest.(check int) "short jmp" 2 sz;
  match i with
  | Insn.Jmp (Insn.Imm 4, Insn.W8) -> ()
  | i -> Alcotest.failf "unexpected %s" (Insn.to_string i)

let test_relaxation_widens () =
  (* a branch over >127 bytes must widen to 5 bytes *)
  let nops = List.init 20 (fun _ -> A_insn (Insn.Nop 15)) in
  let f =
    mk_func "f"
      ((A_insn (Insn.Jmp (Insn.Sym ("l", 0), Insn.W8)) :: nops)
      @ [ A_label "l"; A_insn Insn.Ret ])
  in
  let out = assemble_function ~base:0 f in
  let i, sz = Codec.decode out.fo_bytes 0 in
  Alcotest.(check int) "widened" 5 sz;
  match i with
  | Insn.Jmp (Insn.Imm 300, Insn.W32) -> ()
  | i -> Alcotest.failf "unexpected %s" (Insn.to_string i)

let test_backward_branch () =
  let f =
    mk_func "f"
      [
        A_label "top";
        A_insn (Insn.Alu_ri (Insn.Sub, Reg.r1, Insn.Imm 1));
        A_insn (Insn.Jcc (Cond.Gt, Insn.Sym ("top", 0), Insn.W8));
        A_insn Insn.Ret;
      ]
  in
  let out = assemble_function ~base:0 f in
  let i, _ = Codec.decode out.fo_bytes 6 in
  match i with
  | Insn.Jcc (Cond.Gt, Insn.Imm -8, Insn.W8) -> ()
  | i -> Alcotest.failf "unexpected %s" (Insn.to_string i)

let test_cross_function_reloc () =
  let caller = mk_func "caller" [ A_insn (Insn.Call (Insn.Sym ("callee", 0))); A_insn Insn.Ret ] in
  let callee = mk_func "callee" [ A_insn Insn.Ret ] in
  let obj = assemble { empty_unit with u_funcs = [ caller; callee ] } in
  Alcotest.(check int) "one reloc" 1 (List.length obj.Objfile.relocs);
  let exe, _ = link [ obj ] in
  (* the call must land on callee's entry *)
  let text = Objfile.section_exn exe ".text" in
  let csym = Option.get (Objfile.find_symbol exe "caller") in
  let tsym = Option.get (Objfile.find_symbol exe "callee") in
  let i, sz = Codec.decode text.Types.sec_data (csym.sym_value - text.sec_addr) in
  (match i with
  | Insn.Call (Insn.Imm rel) ->
      Alcotest.(check int) "call target" tsym.sym_value (csym.sym_value + sz + rel)
  | i -> Alcotest.failf "unexpected %s" (Insn.to_string i))

let test_invisible_local_calls () =
  (* without function sections, intra-unit calls leave NO relocations *)
  let caller = mk_func "c2" [ A_insn (Insn.Call (Insn.Sym ("d2", 0))); A_insn Insn.Ret ] in
  let callee = mk_func "d2" [ A_insn Insn.Ret ] in
  let obj =
    assemble { empty_unit with u_funcs = [ caller; callee ]; u_function_sections = false }
  in
  Alcotest.(check int) "no relocs" 0 (List.length obj.Objfile.relocs);
  Alcotest.(check int) "single text section" 1
    (List.length (List.filter (fun s -> s.Types.sec_kind = Types.Text) obj.Objfile.sections))

let test_plt_and_got () =
  let caller =
    mk_func "main" [ A_insn (Insn.Call (Insn.Sym ("ext$plt", 0))); A_insn Insn.Ret ]
  in
  let ext = mk_func "ext" [ A_insn Insn.Ret ] in
  let o1 = assemble { empty_unit with u_funcs = [ caller ] } in
  let o2 = assemble { empty_unit with u_funcs = [ ext ] } in
  let exe, stats = link [ o1; o2 ] in
  Alcotest.(check int) "one stub" 1 stats.Bolt_linker.Linker.plt_stubs;
  let stub = Option.get (Objfile.find_symbol exe "ext$plt") in
  let got = Option.get (Objfile.find_symbol exe "ext$got") in
  let plt_sec = Objfile.section_exn exe ".plt" in
  let i, _ = Codec.decode plt_sec.sec_data (stub.sym_value - plt_sec.sec_addr) in
  (match i with
  | Insn.Jmp_mem (Insn.Imm slot) -> Alcotest.(check int) "stub slot" got.sym_value slot
  | i -> Alcotest.failf "unexpected %s" (Insn.to_string i));
  (* the GOT cell holds ext's address *)
  let got_sec = Objfile.section_exn exe ".got" in
  let r = Buf.reader (Bytes.to_string got_sec.sec_data) in
  r.Buf.pos <- got.sym_value - got_sec.sec_addr;
  let target = Buf.r_i64 r in
  let ext_sym = Option.get (Objfile.find_symbol exe "ext") in
  Alcotest.(check int) "got content" ext_sym.sym_value target

let test_undefined_symbol () =
  let caller = mk_func "main" [ A_insn (Insn.Call (Insn.Sym ("missing", 0))); A_insn Insn.Ret ] in
  let obj = assemble { empty_unit with u_funcs = [ caller ] } in
  match link [ obj ] with
  | _ -> Alcotest.fail "expected Link_error"
  | exception Bolt_linker.Linker.Link_error _ -> ()

let test_duplicate_symbol () =
  let f1 = mk_func "main" [ A_insn Insn.Ret ] in
  let f2 = mk_func "main" [ A_insn Insn.Halt ] in
  let o1 = assemble { empty_unit with u_funcs = [ f1 ] } in
  let o2 = assemble { empty_unit with u_funcs = [ f2 ] } in
  match link [ o1; o2 ] with
  | _ -> Alcotest.fail "expected Link_error"
  | exception Bolt_linker.Linker.Link_error _ -> ()

let test_linker_icf () =
  let body = [ A_insn (Insn.Alu_ri (Insn.Add, Reg.r1, Insn.Imm 3)); A_insn Insn.Ret ] in
  let main = mk_func "main" [ A_insn Insn.Ret ] in
  let f1 = mk_func "twin1" body in
  let f2 = mk_func "twin2" body in
  let f3 = mk_func "other" [ A_insn (Insn.Alu_ri (Insn.Add, Reg.r1, Insn.Imm 4)); A_insn Insn.Ret ] in
  let obj = assemble { empty_unit with u_funcs = [ main; f1; f2; f3 ] } in
  let exe, stats =
    link ~options:{ Bolt_linker.Linker.default_options with icf = true } [ obj ]
  in
  Alcotest.(check int) "one folded" 1 stats.Bolt_linker.Linker.icf_folded;
  let t1 = Option.get (Objfile.find_symbol exe "twin1") in
  let t2 = Option.get (Objfile.find_symbol exe "twin2") in
  Alcotest.(check int) "aliased" t1.sym_value t2.sym_value;
  let o = Option.get (Objfile.find_symbol exe "other") in
  Alcotest.(check bool) "other distinct" true (o.sym_value <> t1.sym_value)

let test_function_order () =
  let mk name = mk_func name [ A_insn Insn.Ret ] in
  let obj = assemble { empty_unit with u_funcs = [ mk "main"; mk "a"; mk "b"; mk "c" ] } in
  let options =
    { Bolt_linker.Linker.default_options with func_order = Some [ "c"; "a" ] }
  in
  let exe, _ = link ~options [ obj ] in
  let addr n = (Option.get (Objfile.find_symbol exe n)).Types.sym_value in
  Alcotest.(check bool) "c first" true (addr "c" < addr "a");
  Alcotest.(check bool) "a before main" true (addr "a" < addr "main");
  Alcotest.(check bool) "main before b" true (addr "main" < addr "b")

let test_jump_table_data_resolution () =
  (* a D_quad referring to a function-internal label becomes fn+offset *)
  let f =
    mk_func "f"
      [ A_insn (Insn.Nop 4); A_label "inner"; A_insn Insn.Ret ]
  in
  let obj =
    assemble
      {
        empty_unit with
        u_funcs = [ f; mk_func "main" [ A_insn Insn.Ret ] ];
        u_rodata = [ D_label ("JT", false); D_quad (Insn.Sym ("inner", 0)) ];
      }
  in
  let r = List.find (fun (r : Types.reloc) -> r.rel_section = ".rodata") obj.Objfile.relocs in
  Alcotest.(check string) "resolved to fn" "f" r.rel_sym;
  Alcotest.(check int) "addend is offset" 4 r.rel_addend;
  let exe, _ = link [ obj ] in
  let ro = Objfile.section_exn exe ".rodata" in
  let rr = Buf.reader (Bytes.to_string ro.sec_data) in
  let v = Buf.r_i64 rr in
  let fsym = Option.get (Objfile.find_symbol exe "f") in
  Alcotest.(check int) "cell holds inner addr" (fsym.sym_value + 4) v

let test_pic_difference_dropped () =
  (* PIC entries resolve at link time and the reloc disappears even with
     emit_relocs *)
  let f = mk_func "f" [ A_insn (Insn.Nop 4); A_label "inner"; A_insn Insn.Ret ] in
  let obj =
    assemble
      {
        empty_unit with
        u_funcs = [ f; mk_func "main" [ A_insn Insn.Ret ] ];
        u_rodata = [ D_label ("JTP", false); D_quad_pic ("inner", 0, "JTP") ];
      }
  in
  let exe, _ =
    link ~options:{ Bolt_linker.Linker.default_options with emit_relocs = true } [ obj ]
  in
  Alcotest.(check int) "pic reloc dropped" 0
    (List.length (List.filter (fun (r : Types.reloc) -> r.rel_section = ".rodata") exe.Objfile.relocs));
  let ro = Objfile.section_exn exe ".rodata" in
  let jt = Option.get (Objfile.find_symbol exe "JTP") in
  let rr = Buf.reader (Bytes.to_string ro.sec_data) in
  rr.Buf.pos <- jt.sym_value - ro.sec_addr;
  let v = Buf.r_i64 rr in
  let fsym = Option.get (Objfile.find_symbol exe "f") in
  Alcotest.(check int) "difference value" (fsym.sym_value + 4 - jt.sym_value) v

let test_lsda_and_dbg_roundtrip () =
  let f =
    mk_func "f"
      [
        A_loc ("x.mc", 10);
        A_insn_lp (Insn.Call (Insn.Sym ("main", 0)), "pad");
        A_loc ("x.mc", 11);
        A_insn Insn.Ret;
        A_label "pad";
        A_insn Insn.Ret;
      ]
  in
  let obj = assemble { empty_unit with u_funcs = [ f; mk_func "main" [ A_insn Insn.Ret ] ] } in
  (* with function sections, [f] starts at offset 0 of its own section
     and comes first, so its records win offset 0 *)
  let meta = Objfile.Index.create obj in
  let l = Option.get (Objfile.Index.lsda meta 0) in
  (match l.lsda_entries with
  | [ e ] ->
      Alcotest.(check int) "range start" 0 e.lsda_start;
      Alcotest.(check int) "range len" 5 e.lsda_len;
      Alcotest.(check int) "pad offset" 6 e.lsda_pad
  | _ -> Alcotest.fail "one lsda entry expected");
  let d = Option.get (Objfile.Index.dbg meta 0) in
  Alcotest.(check int) "two line entries" 2 (List.length d.dbg_entries)

(* ---- chunk collection against the filtering oracle ---- *)

module Gen = Bolt_workloads.Gen
module Driver = Bolt_minic.Driver

let chunks_agree objs =
  Bolt_linker.Linker.collect_chunks objs = Oracle.collect_chunks objs

let test_chunks_fixture () =
  let r = Driver.compile [ ("m", Test_iocore.fixture_source) ] in
  Alcotest.(check bool) "fixture objects" true (chunks_agree r.Driver.objs)

(* A small hhvm_like program with assembly dispatchers, so the link
   also takes [Gen.extra_objs]. *)
let small_hhvm =
  {
    Bolt_workloads.Workloads.hhvm_like with
    Gen.funcs = 60;
    modules = 3;
    iterations = 10;
    dup_plain_families = 2;
    dup_plain_copies = 2;
    dup_switch_families = 2;
    dup_switch_copies = 2;
    leaf_helpers = 6;
    asm_dispatchers = 2;
    top_funcs = 4;
  }

let test_chunks_gen () =
  let w = Gen.gen small_hhvm in
  Alcotest.(check bool) "extra objects" true (w.Gen.extra_objs <> []);
  List.iter
    (fun (lto, function_sections, linker_icf) ->
      let options = { Driver.default_options with lto; function_sections; linker_icf } in
      let r =
        Driver.compile ~options ~externals:w.Gen.externals ~extra_objs:w.Gen.extra_objs
          w.Gen.sources
      in
      Alcotest.(check bool)
        (Printf.sprintf "lto %b, function sections %b, linker icf %b" lto
           function_sections linker_icf)
        true (chunks_agree r.Driver.objs))
    [
      (true, true, false);
      (true, false, false);
      (false, true, false);
      (false, false, false);
      (true, true, true);
      (false, true, true);
    ]

(* Synthetic objects over small name pools, so sections share names,
   symbols name missing sections or none, one function is defined in
   two text sections, relocations patch missing sections, and frame,
   EH and line records name functions with no [Func] symbol or with
   one in a data section.  Records carry their list index, so a bucket
   out of order shows. *)
let gen_objfile =
  let open QCheck.Gen in
  let open Types in
  let sec_name = oneofl [ ".text"; ".text.f"; ".text.g"; ".rodata"; ".data" ] in
  let named = oneofl [ ".text"; ".text.f"; ".text.g"; ".rodata"; ".data"; ".missing"; "" ] in
  let fn = oneofl [ "f"; "g"; "h"; "nosym" ] in
  let indexed n g = map (List.mapi (fun i x -> x i)) (list_size (int_range 0 n) g) in
  let section =
    map3
      (fun sec_name sec_kind n ->
        { sec_name; sec_kind; sec_addr = 0; sec_data = Bytes.make n '\x02'; sec_size = n })
      sec_name
      (oneofl [ Text; Text; Rodata; Data; Bss ])
      (int_range 0 8)
  in
  let symbol =
    map3
      (fun sym_name sym_kind sym_section i ->
        { sym_name; sym_kind; sym_bind = Global; sym_section; sym_value = i; sym_size = 4 })
      (oneofl [ "f"; "g"; "h"; "obj" ])
      (oneofl [ Func; Func; Object; Notype ])
      named
  in
  let reloc =
    map2
      (fun rel_section rel_sym i ->
        {
          rel_section;
          rel_offset = i;
          rel_kind = Abs64;
          rel_sym;
          rel_addend = 0;
          rel_end = 0;
          rel_pic_base = "";
        })
      named fn
  in
  let fde = map (fun fde_func i -> { fde_func; fde_addr = i; fde_size = 4; fde_cfi = [] }) fn in
  let lsda =
    map (fun lsda_func i -> { lsda_func; lsda_fn_addr = i; lsda_entries = [] }) fn
  in
  let dbg =
    map (fun dbg_func i -> { dbg_func; dbg_addr = i; dbg_entries = [ (0, "x.mc", i) ] }) fn
  in
  let* sections = list_size (int_range 1 6) section in
  let* symbols = indexed 10 symbol in
  let* relocs = indexed 8 reloc in
  let* fdes = indexed 6 fde in
  let* lsdas = indexed 4 lsda in
  let+ dbgs = indexed 4 dbg in
  {
    Objfile.kind = Objfile.Object;
    entry = 0;
    build_id = "";
    sections;
    symbols;
    relocs;
    fdes;
    lsdas;
    dbgs;
    fingerprints = [];
  }

let print_objfile (o : Objfile.t) =
  let open Types in
  let kind = function Text -> "text" | Rodata -> "rodata" | Data -> "data" | Bss -> "bss" in
  let skind = function Func -> "func" | Object -> "object" | Notype -> "notype" in
  String.concat "\n"
    [
      "sections: "
      ^ String.concat " " (List.map (fun s -> s.sec_name ^ ":" ^ kind s.sec_kind) o.sections);
      "symbols: "
      ^ String.concat " "
          (List.map
             (fun sy -> Printf.sprintf "%s:%s@%S" sy.sym_name (skind sy.sym_kind) sy.sym_section)
             o.symbols);
      "relocs in: " ^ String.concat " " (List.map (fun r -> r.rel_section) o.relocs);
      "fdes: " ^ String.concat " " (List.map (fun f -> f.fde_func) o.fdes);
      "lsdas: " ^ String.concat " " (List.map (fun l -> l.lsda_func) o.lsdas);
      "dbgs: " ^ String.concat " " (List.map (fun d -> d.dbg_func) o.dbgs);
    ]

let prop_chunks =
  QCheck.Test.make ~name:"collect_chunks == filtering oracle (synthetic objects)"
    ~count:500
    (QCheck.make
       ~print:(fun objs -> String.concat "\n--\n" (List.map print_objfile objs))
       QCheck.Gen.(list_size (int_range 1 3) gen_objfile))
    chunks_agree

(* ---- the assembler against [Oracle.Asm] ---- *)

(* Random item streams over six labels.  Branches aim at the labels
   (sometimes with an addend) and at non-local symbols; gaps of nops
   set distances; alignment pads, CFI, line and landing-pad items sit
   anywhere.  Three shapes are planted on purpose: a branch exactly at
   the 8-bit boundary (127 and -128 stay narrow, 128 and -129 widen),
   crossing branch chains whose widenings cascade over several rounds,
   and a pad inside a branch's span behind a branch that widens, whose
   padding then shrinks. *)
type piece =
  | P_label of int
  | P_dup_label of int
  | P_branch of bool * int * int (* conditional?, label, addend *)
  | P_ext of bool (* branch to a non-local symbol *)
  | P_gap of int (* exactly this many bytes of nops *)
  | P_insn of Insn.t
  | P_align of int
  | P_cfi of Types.cfi_op
  | P_loc of string * int
  | P_lp of int option (* a call under a landing pad: a label, or one outside *)
  | P_call_local of int
  | P_lea_local of int

let asm_label k = Printf.sprintf "L%d" k

let nops n = List.init ((n + 14) / 15) (fun i -> A_insn (Insn.Nop (min 15 (n - (15 * i)))))

let items_of_pieces pieces =
  let defined = Hashtbl.create 8 in
  List.concat_map
    (function
      | P_label k ->
          if Hashtbl.mem defined k then []
          else begin
            Hashtbl.replace defined k ();
            [ A_label (asm_label k) ]
          end
      | P_dup_label k -> [ A_label (asm_label k) ]
      | P_branch (cond, k, a) ->
          let v = Insn.Sym (asm_label k, a) in
          [ A_insn (if cond then Insn.Jcc (Cond.Lt, v, Insn.W8) else Insn.Jmp (v, Insn.W8)) ]
      | P_ext cond ->
          let v = Insn.Sym ("ext_fn", 0) in
          [ A_insn (if cond then Insn.Jcc (Cond.Eq, v, Insn.W8) else Insn.Jmp (v, Insn.W32)) ]
      | P_gap n -> nops n
      | P_insn i -> [ A_insn i ]
      | P_align a -> [ A_align a ]
      | P_cfi op -> [ A_cfi op ]
      | P_loc (f, l) -> [ A_loc (f, l) ]
      | P_lp pad ->
          let pad = match pad with Some k -> asm_label k | None -> "outer_pad" in
          [ A_insn_lp (Insn.Call (Insn.Sym ("callee", 0)), pad) ]
      | P_call_local k -> [ A_insn (Insn.Call (Insn.Sym (asm_label k, 0))) ]
      | P_lea_local k -> [ A_insn (Insn.Lea (Reg.r1, Insn.Sym (asm_label k, 0))) ])
    pieces

let gen_pieces =
  let open QCheck.Gen in
  let lab = int_bound 5 in
  let piece =
    frequency
      [
        (4, map (fun k -> P_label k) lab);
        (1, map (fun k -> P_dup_label k) (frequency [ (30, return 9); (1, lab) ]));
        ( 5,
          map3
            (fun c k a -> P_branch (c, k, a))
            bool lab
            (frequency [ (6, return 0); (1, int_range (-3) 3) ]) );
        (1, map (fun c -> P_ext c) bool);
        (3, map (fun n -> P_gap n) (frequency [ (3, int_range 1 40); (2, int_range 120 131) ]));
        ( 2,
          map
            (fun i -> P_insn i)
            (oneofl
               [
                 Insn.Ret;
                 Insn.Mov_rr (Reg.r1, Reg.r2);
                 Insn.Mov_ri (Reg.r1, Insn.Imm 7, Insn.I64);
                 Insn.Mov_ri (Reg.r2, Insn.Sym ("glob", 16), Insn.I64);
                 Insn.Jmp (Insn.Imm 3, Insn.W8);
                 Insn.Jmp (Insn.Imm (-200), Insn.W32);
                 Insn.Jcc (Cond.Eq, Insn.Imm 9, Insn.W8);
                 Insn.Call (Insn.Sym ("callee", 0));
                 Insn.Load_abs (Reg.r2, Insn.Sym ("glob", 8));
                 Insn.Lea_rel (Reg.r3, Insn.Sym ("glob", 0));
               ]) );
        (2, map (fun a -> P_align a) (oneofl [ 0; 1; 2; 4; 8; 16 ]));
        ( 1,
          map
            (fun op -> P_cfi op)
            (oneofl
               [
                 Types.Cfi_establish;
                 Types.Cfi_def_locals 16;
                 Types.Cfi_save (Reg.r3, 8);
                 Types.Cfi_teardown;
               ]) );
        (1, map2 (fun f l -> P_loc (f, l)) (oneofl [ "a.mc"; "b.mc" ]) (int_range 1 2));
        (2, map (fun k -> P_lp k) (opt lab));
        (1, map (fun k -> P_call_local k) lab);
        (1, map (fun k -> P_lea_local k) lab);
      ]
  in
  let chunk =
    frequency
      [
        (12, map (fun p -> [ p ]) piece);
        (* backward: rel = -(d + 2), from -126 to -130 *)
        ( 2,
          map3 (fun c k d -> [ P_label k; P_gap d; P_branch (c, k, 0) ]) bool lab (int_range 124 128) );
        (* forward: rel = d, from 125 to 130 *)
        ( 2,
          map3 (fun c k d -> [ P_branch (c, k, 0); P_gap d; P_label k ]) bool lab (int_range 125 130) );
        (* crossing chain: each branch's span holds the next branch *)
        ( 1,
          let+ c = bool and+ g = list_repeat 3 (int_range 30 46) and+ h = list_repeat 2 (int_range 30 60) in
          match (g, h) with
          | [ g1; g2; g3 ], [ h1; h2 ] ->
              [
                P_branch (c, 0, 0); P_gap g1; P_branch (c, 1, 0); P_gap g2; P_branch (c, 2, 0);
                P_gap g3; P_label 0; P_gap h1; P_label 1; P_gap h2; P_label 2;
              ]
          | _ -> [] );
        (* a pad in the span of a branch behind one that widens *)
        ( 2,
          let+ c = bool and+ g = int_range 124 128 and+ x = int_range 40 70
          and+ a = oneofl [ 4; 8; 16 ] and+ y = int_range 40 70 in
          [
            P_label 3; P_gap g; P_branch (c, 3, 0); P_branch (c, 4, 0); P_gap x; P_align a;
            P_gap y; P_label 4;
          ] );
      ]
  in
  map List.concat (list_size (int_range 1 14) chunk)

let pp_item = function
  | A_label l -> l ^ ":"
  | A_insn i -> "  " ^ Insn.to_string i
  | A_insn_lp (i, pad) -> Printf.sprintf "  %s  [lp %s]" (Insn.to_string i) pad
  | A_cfi _ -> "  .cfi"
  | A_align a -> Printf.sprintf "  .align %d" a
  | A_loc (f, l) -> Printf.sprintf "  .loc %s %d" f l

let catch_asm f = match f () with r -> Ok r | exception Asm_error m -> Error m

let prop_assemble =
  QCheck.Test.make ~name:"assemble_function == relaxing oracle (random item streams)"
    ~count:1500
    (QCheck.make
       ~print:(fun (pieces, base, unit_) ->
         Printf.sprintf "base %d, resolve in unit %b\n%s" base unit_
           (String.concat "\n" (List.map pp_item (items_of_pieces pieces))))
       QCheck.Gen.(triple gen_pieces (int_bound 40) bool))
    (fun (pieces, base, unit_) ->
      let f = mk_func "f" (items_of_pieces pieces) in
      (* without function sections, calls inside the unit resolve here *)
      let resolve_in_unit s = if unit_ && s = "callee" then Some 4096 else None in
      catch_asm (fun () -> assemble_function ~resolve_in_unit ~base f)
      = catch_asm (fun () -> Oracle.Asm.assemble_function ~resolve_in_unit ~base f))

let rand = Random.State.make [| 1907 |]

let suite =
  [
    Alcotest.test_case "relax-short" `Quick test_relaxation_short;
    Alcotest.test_case "relax-widens" `Quick test_relaxation_widens;
    Alcotest.test_case "backward-branch" `Quick test_backward_branch;
    Alcotest.test_case "cross-function-reloc" `Quick test_cross_function_reloc;
    Alcotest.test_case "invisible-local-calls" `Quick test_invisible_local_calls;
    Alcotest.test_case "plt-got" `Quick test_plt_and_got;
    Alcotest.test_case "undefined-symbol" `Quick test_undefined_symbol;
    Alcotest.test_case "duplicate-symbol" `Quick test_duplicate_symbol;
    Alcotest.test_case "linker-icf" `Quick test_linker_icf;
    Alcotest.test_case "function-order" `Quick test_function_order;
    Alcotest.test_case "jt-data-resolution" `Quick test_jump_table_data_resolution;
    Alcotest.test_case "pic-difference-dropped" `Quick test_pic_difference_dropped;
    Alcotest.test_case "lsda-dbg" `Quick test_lsda_and_dbg_roundtrip;
    Alcotest.test_case "chunks-oracle-fixture" `Quick test_chunks_fixture;
    Alcotest.test_case "chunks-oracle-gen" `Quick test_chunks_gen;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand prop_chunks;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand prop_assemble;
  ]
