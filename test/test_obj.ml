(* BELF container: serialization roundtrips and lookups. *)

open Bolt_obj
open Types

let sample_exe () =
  let text = Bytes.of_string "\x01\x02\x04" in
  {
    Objfile.kind = Objfile.Executable;
    entry = 0x400000;
    build_id = "";
    sections =
      [
        { sec_name = ".text"; sec_kind = Text; sec_addr = 0x400000; sec_data = text; sec_size = 3 };
        {
          sec_name = ".rodata";
          sec_kind = Rodata;
          sec_addr = 0x1000000;
          sec_data = Bytes.make 16 '\x07';
          sec_size = 16;
        };
        { sec_name = ".bss"; sec_kind = Bss; sec_addr = 0x2000000; sec_data = Bytes.empty; sec_size = 64 };
      ];
    symbols =
      [
        {
          sym_name = "main";
          sym_kind = Func;
          sym_bind = Global;
          sym_section = ".text";
          sym_value = 0x400000;
          sym_size = 3;
        };
        {
          sym_name = "data";
          sym_kind = Object;
          sym_bind = Local;
          sym_section = ".rodata";
          sym_value = 0x1000000;
          sym_size = 16;
        };
      ];
    relocs =
      [
        {
          rel_section = ".text";
          rel_offset = 1;
          rel_kind = Rel32;
          rel_sym = "main";
          rel_addend = -3;
          rel_end = 4;
          rel_pic_base = "";
        };
        {
          rel_section = ".rodata";
          rel_offset = 0;
          rel_kind = Abs64;
          rel_sym = "main";
          rel_addend = 8;
          rel_end = 0;
          rel_pic_base = "tbl";
        };
      ];
    fdes =
      [
        {
          fde_func = "main";
          fde_addr = 0x400000;
          fde_size = 3;
          fde_cfi =
            [
              (2, Cfi_establish);
              (2, Cfi_def_locals 16);
              (2, Cfi_save (Bolt_isa.Reg.r8, 24));
              (3, Cfi_restore Bolt_isa.Reg.r8);
              ( 3,
                Cfi_set_state
                  { cfa_established = true; cfa_locals = 8; cfa_saved = [ (Bolt_isa.Reg.r9, 16) ] }
              );
              (3, Cfi_teardown);
            ];
        };
      ];
    lsdas =
      [
        {
          lsda_func = "main";
          lsda_fn_addr = 0x400000;
          lsda_entries = [ { lsda_start = 0; lsda_len = 2; lsda_pad = -8; lsda_action = 1 } ];
        };
      ];
    dbgs =
      [ { dbg_func = "main"; dbg_addr = 0x400000; dbg_entries = [ (0, "a.mc", 3); (2, "a.mc", 9) ] } ];
    fingerprints =
      [
        {
          Fingerprint.fp_func = "main";
          fp_size = 3;
          fp_opcode_hash = 0x1234;
          fp_cfg_hash = 0xabcd;
          fp_calls = [ "helper" ];
          fp_blocks =
            [
              { Fingerprint.bk_off = 0; bk_size = 3; bk_opcode_hash = 0x9; bk_shape_hash = 0x7 };
            ];
        };
      ];
  }

let test_roundtrip () =
  let exe = sample_exe () in
  let s = Objfile.to_string exe in
  let exe' = Objfile.of_string s in
  Alcotest.(check bool) "roundtrip equal" true (exe = exe')

let test_bad_magic () =
  match Objfile.of_string "NOPE....." with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception Buf.Corrupt _ -> ()

let test_truncated () =
  let s = Objfile.to_string (sample_exe ()) in
  match Objfile.of_string (String.sub s 0 (String.length s / 2)) with
  | _ -> Alcotest.fail "expected Corrupt"
  | exception Buf.Corrupt _ -> ()

let test_lookups () =
  let exe = sample_exe () in
  Alcotest.(check bool) "find_section" true (Objfile.find_section exe ".rodata" <> None);
  Alcotest.(check bool) "section_at" true
    (match Objfile.section_at exe 0x1000004 with
    | Some s -> s.sec_name = ".rodata"
    | None -> false);
  Alcotest.(check int) "text_size" 3 (Objfile.text_size exe)

(* Two records per start (an ICF survivor and its alias): the index must
   return the first, as a scan of the record list would. *)
let test_metadata_index () =
  let fde name addr = { fde_func = name; fde_addr = addr; fde_size = 3; fde_cfi = [] } in
  let dbg name addr = { dbg_func = name; dbg_addr = addr; dbg_entries = [] } in
  let lsda name addr = { lsda_func = name; lsda_fn_addr = addr; lsda_entries = [] } in
  let exe =
    {
      (Objfile.empty Objfile.Executable) with
      fdes = [ fde "f" 1; fde "g" 5; fde "f2" 1 ];
      dbgs = [ dbg "f" 1; dbg "f2" 1 ];
      lsdas = [ lsda "f" 1; lsda "f2" 1 ];
    }
  in
  let ix = Objfile.Index.create exe in
  let name f = Option.map f in
  Alcotest.(check (option string)) "first fde" (Some "f")
    (name (fun f -> f.fde_func) (Objfile.Index.fde ix 1));
  Alcotest.(check (option string)) "other fde" (Some "g")
    (name (fun f -> f.fde_func) (Objfile.Index.fde ix 5));
  Alcotest.(check (option string)) "first dbg" (Some "f")
    (name (fun d -> d.dbg_func) (Objfile.Index.dbg ix 1));
  Alcotest.(check (option string)) "first lsda" (Some "f")
    (name (fun l -> l.lsda_func) (Objfile.Index.lsda ix 1));
  Alcotest.(check bool) "missing starts" true
    (Objfile.Index.fde ix 2 = None
    && Objfile.Index.dbg ix 5 = None
    && Objfile.Index.lsda ix 5 = None)

let test_cfi_state_replay () =
  let ops =
    [
      (4, Cfi_establish);
      (10, Cfi_def_locals 32);
      (12, Cfi_save (Bolt_isa.Reg.r8, 40));
      (14, Cfi_save (Bolt_isa.Reg.r9, 48));
      (60, Cfi_restore Bolt_isa.Reg.r9);
      (64, Cfi_teardown);
    ]
  in
  let st = cfi_state_at ops 13 in
  Alcotest.(check bool) "established" true st.cfa_established;
  Alcotest.(check int) "locals" 32 st.cfa_locals;
  Alcotest.(check int) "one save" 1 (List.length st.cfa_saved);
  let st = cfi_state_at ops 20 in
  Alcotest.(check int) "two saves" 2 (List.length st.cfa_saved);
  let st = cfi_state_at ops 62 in
  Alcotest.(check int) "after restore" 1 (List.length st.cfa_saved);
  let st = cfi_state_at ops 100 in
  Alcotest.(check bool) "torn down" false st.cfa_established;
  (* set-state overrides everything *)
  let st =
    cfi_state_at
      (ops @ [ (70, Cfi_set_state { cfa_established = true; cfa_locals = 8; cfa_saved = [] }) ])
      70
  in
  Alcotest.(check bool) "set-state" true (st.cfa_established && st.cfa_locals = 8)

let test_cfi_state_equal () =
  let a = { cfa_established = true; cfa_locals = 8; cfa_saved = [ (Bolt_isa.Reg.r8, 16); (Bolt_isa.Reg.r9, 24) ] } in
  let b = { cfa_established = true; cfa_locals = 8; cfa_saved = [ (Bolt_isa.Reg.r9, 24); (Bolt_isa.Reg.r8, 16) ] } in
  Alcotest.(check bool) "order-insensitive" true (cfi_state_equal a b);
  Alcotest.(check bool) "locals differ" false
    (cfi_state_equal a { b with cfa_locals = 16 })

let test_build_id () =
  let exe = Objfile.stamp_build_id (sample_exe ()) in
  (* deterministic: restamping the same contents gives the same id *)
  Alcotest.(check string) "stable" exe.Objfile.build_id
    (Objfile.compute_build_id exe);
  Alcotest.(check bool) "non-empty" true (exe.Objfile.build_id <> "");
  (* the stamp itself is excluded from the digest, so it cannot
     invalidate itself *)
  Alcotest.(check string) "self-consistent" exe.Objfile.build_id
    (Objfile.compute_build_id { exe with Objfile.build_id = "" });
  (* any code change is a new revision *)
  let patched =
    {
      exe with
      Objfile.sections =
        List.map
          (fun (s : Types.section) ->
            if s.sec_name = ".text" then
              { s with sec_data = Bytes.of_string "\x01\x02\x05" }
            else s)
          exe.Objfile.sections;
    }
  in
  Alcotest.(check bool) "changed text changes id" true
    (Objfile.compute_build_id patched <> exe.Objfile.build_id);
  (* survives serialization *)
  let exe' = Objfile.of_string (Objfile.to_string exe) in
  Alcotest.(check string) "round-trips" exe.Objfile.build_id exe'.Objfile.build_id

let test_v3_compat () =
  (* a pre-build-id (v3) file still loads, with an empty build-id *)
  let exe = sample_exe () in
  let v4 = Objfile.to_string exe in
  (* v3 layout = v4 minus the build-id string field after the entry;
     sample_exe has build_id = "", serialized as a zero length *)
  let b = Buf.writer () in
  Buf.str b "";
  let empty_str = Buf.contents b in
  let prefix_len = 4 + 1 + 1 + 8 (* magic, version, kind, entry *) in
  let v3 =
    String.concat ""
      [
        "BELF";
        "\x03";
        String.sub v4 5 (prefix_len - 5);
        String.sub v4
          (prefix_len + String.length empty_str)
          (String.length v4 - prefix_len - String.length empty_str);
      ]
  in
  let exe' = Objfile.of_string v3 in
  Alcotest.(check string) "unstamped" "" exe'.Objfile.build_id;
  (* v3 predates fingerprints too: they drop, everything else survives *)
  Alcotest.(check bool) "payload intact" true
    (exe' = { exe with Objfile.fingerprints = [] })

let buf_roundtrip =
  QCheck.Test.make ~name:"Buf i64 roundtrip" ~count:1000
    (QCheck.make QCheck.Gen.(int_range min_int max_int))
    (fun v ->
      let b = Buf.writer () in
      Buf.i64 b v;
      let r = Buf.reader (Buf.contents b) in
      Buf.r_i64 r = v)

let buf_str_roundtrip =
  QCheck.Test.make ~name:"Buf str/list roundtrip" ~count:200
    QCheck.(small_list (string_of_size (QCheck.Gen.int_range 0 30)))
    (fun ss ->
      let b = Buf.writer () in
      Buf.list b Buf.str ss;
      let r = Buf.reader (Buf.contents b) in
      Buf.r_list r Buf.r_str = ss)

let suite =
  [
    Alcotest.test_case "objfile-roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "bad-magic" `Quick test_bad_magic;
    Alcotest.test_case "truncated" `Quick test_truncated;
    Alcotest.test_case "lookups" `Quick test_lookups;
    Alcotest.test_case "metadata-index" `Quick test_metadata_index;
    Alcotest.test_case "cfi-state-replay" `Quick test_cfi_state_replay;
    Alcotest.test_case "cfi-state-equal" `Quick test_cfi_state_equal;
    Alcotest.test_case "build-id" `Quick test_build_id;
    Alcotest.test_case "v3-compat" `Quick test_v3_compat;
    QCheck_alcotest.to_alcotest buf_roundtrip;
    QCheck_alcotest.to_alcotest buf_str_roundtrip;
  ]
