(* iocore parity suite: the zero-copy data plane against its reference
   implementations ([Oracle]).  The data plane's contract is
   "byte-identical, just faster", so every test here is differential —
   QCheck properties drive the fdata lexer and the split_on_char oracle
   parser over generated text (valid records, junk lines, CRLF, double
   spaces) and the Buf cursor against the byte-loop primitives, the BELF
   decoder's output on committed v4/v5 fixtures is pinned by digests the
   byte-loop decoder produced, and the golden-digest check recompiles the
   fixture program and demands the same md5s the pre-iocore code produced
   (obolt at j=1/j=4, bmerge, fdata dump). *)

module Fdata = Bolt_profile.Fdata
module Objfile = Bolt_obj.Objfile
module Buf = Bolt_obj.Buf
module Merge = Bolt_fleet.Merge
module Gen = Bolt_workloads.Gen
module P = Bolt_pipeline.Pipeline

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let md5 s = Digest.to_hex (Digest.string s)

let digests () =
  read_file "fixtures/digests.txt" |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ k; v ] -> Some (k, v)
         | _ -> None)

let digest_of name = List.assoc name (digests ())

(* ------------------------------------------------------------------ *)
(* fdata text generator: a mix every fleet shard could contain        *)

let gen_name =
  QCheck.Gen.oneofl
    [ "main"; "work"; "f_1"; "a.b/c$d"; "x"; "_Z4loopi"; "mf_000001" ]

let gen_num =
  QCheck.Gen.oneofl
    [
      "0";
      "1";
      "42";
      "4096";
      "9223372036854775807";
      (* over max_int64: both parsers must agree on the rejection *)
      "9999999999999999999999";
      "-3";
      "0x10";
      "ff";
      "";
      "12junk";
    ]

let gen_sep = QCheck.Gen.oneofl [ " "; "  "; " \t" ]

let gen_line =
  let open QCheck.Gen in
  let fields tag parts =
    gen_sep >>= fun sep -> return (String.concat sep (tag :: parts))
  in
  frequency
    [
      ( 4,
        gen_name >>= fun ff ->
        gen_num >>= fun fo ->
        gen_name >>= fun tf ->
        gen_num >>= fun t_o ->
        gen_num >>= fun c ->
        gen_num >>= fun m -> fields "B" [ ff; fo; tf; t_o; c; m ] );
      ( 2,
        gen_name >>= fun f ->
        gen_num >>= fun s ->
        gen_num >>= fun e ->
        gen_num >>= fun c -> fields "F" [ f; s; e; c ] );
      ( 2,
        gen_name >>= fun f ->
        gen_num >>= fun o ->
        gen_num >>= fun c -> fields "S" [ f; o; c ] );
      ( 1,
        gen_name >>= fun f ->
        gen_num >>= fun sz ->
        oneofl [ "-"; "main,work"; "x" ] >>= fun calls ->
        fields "G" [ f; sz; "6450b1484cf4a5"; "24c2db74b1ff07"; calls ] );
      ( 1,
        gen_name >>= fun f ->
        gen_num >>= fun o ->
        gen_num >>= fun sz -> fields "GB" [ f; o; sz; "2b826cf0"; "137454ad" ] );
      ( 1,
        oneofl [ "host"; "build-id"; "timestamp"; "events"; "weight"; "color" ]
        >>= fun k ->
        oneofl [ "fleet-01"; "7bc66ccc"; "100"; "2.5"; "" ] >>= fun v ->
        fields "H" [ k; v ] );
      (1, oneofl [ "mode lbr"; "mode sample"; "mode turbo" ]);
      ( 1,
        oneofl
          [
            "";
            " ";
            "B";
            "B main";
            "Z who knows";
            "GB before_any_g 0 8 ab cd";
            "B main 0 main 4 1 0 extra";
            String.make 200 'B';
          ] );
    ]

let gen_text =
  let open QCheck.Gen in
  list_size (int_range 0 60) gen_line >>= fun lines ->
  (* CRLF and missing trailing newline must not change what parses *)
  oneofl [ "\n"; "\r\n" ] >>= fun eol ->
  oneofl [ ""; "\n" ] >>= fun last ->
  frequency [ (4, return true); (1, return false) ] >>= fun with_mode ->
  let lines = if with_mode then "mode lbr" :: lines else lines in
  return (String.concat eol lines ^ last)

let arb_text = QCheck.make ~print:(fun s -> String.escaped s) gen_text

(* Lenient parses must agree exactly — records, header, fingerprints,
   totals AND the warning list (uncapped so the oracle's list lines up). *)
let prop_parse_parity =
  QCheck.Test.make ~name:"fdata lexer == legacy parse (lenient)" ~count:500
    arb_text (fun text ->
      Fdata.parse ~max_warnings:max_int text = Oracle.parse_legacy text)

(* Strict parses must fail on the same input with the same message. *)
let prop_strict_parity =
  QCheck.Test.make ~name:"fdata lexer == legacy parse (strict)" ~count:500
    arb_text (fun text ->
      let run p =
        match p () with
        | r -> Ok r
        | exception Fdata.Bad_format m -> Error m
      in
      run (fun () -> Fdata.parse ~strict:true text)
      = run (fun () -> Oracle.parse_legacy ~strict:true text))

(* The streaming scan delivers exactly the records parse materializes,
   in file order, and the same envelope. *)
let prop_scan_parity =
  QCheck.Test.make ~name:"fdata scan callbacks == parse lists" ~count:300
    arb_text (fun text ->
      let branches = ref [] and ranges = ref [] and samples = ref [] in
      let t, w =
        Fdata.scan ~max_warnings:max_int
          ~branch:(fun b -> branches := b :: !branches)
          ~range:(fun r -> ranges := r :: !ranges)
          ~sample:(fun s -> samples := s :: !samples)
          text
      in
      let p, pw = Fdata.parse ~max_warnings:max_int text in
      w = pw
      && { p with Fdata.branches = []; ranges = []; samples = [] } = t
      && List.rev !branches = p.Fdata.branches
      && List.rev !ranges = p.Fdata.ranges
      && List.rev !samples = p.Fdata.samples)

(* The arena emitter and the Printf emitter write the same bytes, and
   the dump is a fixpoint: parsing it and dumping again reproduces the
   exact bytes.  (Plain [parse (to_string p) = p] is too strong — an
   all-defaults header parses to [Some no_header] but dumps to nothing,
   which is the format's canonicalization, shared by both emitters.) *)
let prop_emit_parity =
  QCheck.Test.make ~name:"fdata to_string == to_string_legacy" ~count:300
    arb_text (fun text ->
      let p = fst (Fdata.parse text) in
      let s = Fdata.to_string p in
      s = Oracle.to_string_legacy p && Fdata.to_string (fst (Fdata.parse s)) = s)

(* ------------------------------------------------------------------ *)
(* Buf primitive parity: new batched reads vs the legacy byte loops   *)

let arb_bytes =
  QCheck.make
    ~print:(fun s -> String.escaped s)
    QCheck.Gen.(map Bytes.unsafe_to_string (bytes_size (int_range 0 64)))

let prop_reader_parity =
  QCheck.Test.make ~name:"Buf reader == Buf.Legacy reader" ~count:500
    arb_bytes (fun payload ->
      (* serialize with the new writer, read back with both cursors; the
         fields cover every primitive the BELF decoder reads with *)
      let names = [ payload; ""; ".text" ] in
      let w = Buf.writer () in
      Buf.u8 w 0xab;
      Buf.u32 w (String.length payload * 7919);
      Buf.i64 w (String.length payload * 104729);
      Buf.i64 w (-1);
      Buf.str w payload;
      Buf.bytes w (Bytes.of_string payload);
      Buf.list w Buf.str names;
      let s = Buf.contents w in
      let lw = Oracle.Buf.writer () in
      Oracle.Buf.u8 lw 0xab;
      Oracle.Buf.u32 lw (String.length payload * 7919);
      Oracle.Buf.i64 lw (String.length payload * 104729);
      Oracle.Buf.i64 lw (-1);
      Oracle.Buf.str lw payload;
      Oracle.Buf.bytes lw (Bytes.of_string payload);
      Oracle.Buf.list lw Oracle.Buf.str names;
      s = Oracle.Buf.contents lw
      &&
      let r = Buf.reader s and lr = Buf.reader s in
      Buf.r_u8 r = Oracle.Buf.r_u8 lr
      && Buf.r_u32 r = Oracle.Buf.r_u32 lr
      && Buf.r_i64 r = Oracle.Buf.r_i64 lr
      && Buf.r_i64 r = Oracle.Buf.r_i64 lr
      && Buf.r_str r = Oracle.Buf.r_str lr
      && Buf.r_bytes r = Oracle.Buf.r_bytes lr
      && Buf.r_list r Buf.r_str = Oracle.Buf.r_list lr Oracle.Buf.r_str
      && match Buf.r_u8 r with
         | _ -> false
         | exception Buf.Corrupt _ -> true)

let prop_text_emitters =
  QCheck.Test.make ~name:"Buf dec/dec64/hex == Printf" ~count:500
    QCheck.(pair int (int_range 0 max_int))
    (fun (a, b) ->
      let w = Buf.writer () in
      Buf.dec w a;
      Buf.add_char w ' ';
      Buf.dec64 w (Int64.of_int a);
      Buf.add_char w ' ';
      Buf.hex w b;
      Buf.contents w = Printf.sprintf "%d %d %x" a a b)

let buf_units () =
  (* reader memo: repeated strings come back physically shared *)
  let w = Buf.writer () in
  List.iter (Buf.str w) [ "f1"; ".text"; "f2"; ".text"; "f3"; ".text" ];
  let r = Buf.reader (Buf.contents w) in
  let vs = List.init 6 (fun _ -> Buf.r_str r) in
  (match vs with
  | [ _; t1; _; t2; _; t3 ] ->
      Alcotest.(check bool) "memo shares" true (t1 == t2 && t2 == t3)
  | _ -> assert false);
  (* truncation raises, never reads past the window *)
  let r = Buf.reader "\xff\xff\xff\xff" in
  Alcotest.check_raises "truncated str" (Buf.Corrupt "truncated input")
    (fun () -> ignore (Buf.r_str r))

(* ------------------------------------------------------------------ *)
(* BELF fixtures: both container versions, pinned by digests         *)

let belf_fixture_parity () =
  List.iter
    (fun (file, key) ->
      let bytes = read_file ("fixtures/" ^ file) in
      Alcotest.(check string)
        (file ^ " digest") (digest_of key) (md5 bytes);
      let n = Objfile.of_string bytes in
      (* v5 re-encodes to the same bytes; v4 re-encodes as v5, to the
         bytes the byte-loop decoder's output re-encoded to *)
      let reencoded = md5 (Objfile.to_string n) in
      if key = "belf_v5" then
        Alcotest.(check string) (file ^ " round-trip") (md5 bytes) reencoded
      else
        Alcotest.(check string)
          (file ^ " re-encode") (digest_of "belf_v4_reencode") reencoded)
    [ ("small_v5.belf", "belf_v5"); ("small_v4.belf", "belf_v4") ]

let fdata_fixture_parity () =
  List.iter
    (fun file ->
      let text = read_file ("fixtures/" ^ file) in
      let n = Fdata.parse ~max_warnings:max_int text in
      Alcotest.(check bool) (file ^ " parsers agree") true
        (n = Oracle.parse_legacy text);
      Alcotest.(check int) (file ^ " no warnings") 0 (List.length (snd n));
      Alcotest.(check string) (file ^ " emitters agree")
        (Oracle.to_string_legacy (fst n))
        (Fdata.to_string (fst n)))
    [ "profile.fdata"; "merged.fdata" ]

(* ------------------------------------------------------------------ *)
(* Golden digests: the whole pipeline, byte-identical to pre-refactor *)

(* The program the committed fixtures were generated from; changing it
   invalidates test/fixtures/digests.txt. *)
let fixture_source =
  {|
global total = 0;
const table = { 5, 3, 8, 1, 9, 2, 7, 4 };

fn hash(x) { return (x * 2654435761) & 1073741823; }

fn classify(x) {
  switch (x % 8) {
    case 0: { return table[0]; }
    case 1: { return table[1]; }
    case 2: { return table[2]; }
    case 3: { return table[3]; }
    case 4: { return table[4]; }
    default: { return x % 3; }
  }
}

fn process(x) {
  var h = hash(x);
  if (h % 100 < 2) { throw h; }
  return classify(h) + (h % 7);
}

fn main() {
  var i = 0;
  while (i < 20000) {
    try { total = total + process(i); }
    catch (e) { total = total + 1; }
    i = i + 1;
  }
  out total;
  return 0;
}
|}

let golden_digests () =
  let build = P.compile [ ("m", fixture_source) ] in
  let input = Array.init 16 (fun i -> (i * 7) + 3) in
  let prof, _ = P.profile build ~input in
  Alcotest.(check string) "fdata dump" (digest_of "fdata")
    (md5 (Fdata.to_string prof));
  let b1, _ = P.bolt ~jobs:1 build prof in
  let b4, _ = P.bolt ~jobs:4 build prof in
  Alcotest.(check string) "obolt j=1" (digest_of "obolt_j1")
    (md5 (Objfile.to_string b1.P.exe));
  Alcotest.(check string) "obolt j=4" (digest_of "obolt_j4")
    (md5 (Objfile.to_string b4.P.exe));
  let shard host w ts =
    let p, _ = P.profile_shard ~host ~weight:w ~timestamp:ts build ~input in
    Merge.shard_of_profile ~name:host p
  in
  let merged =
    Merge.merge
      ~opts:{ Merge.default_options with Merge.decay = Some 0.001 }
      [ shard "host-a" 1.0 100; shard "host-b" 2.5 130; shard "host-c" 0.75 90 ]
  in
  Alcotest.(check string) "bmerge" (digest_of "bmerge")
    (md5 (Fdata.to_string merged));
  (* streaming merge produces the same bytes as the batch merge *)
  let texts =
    [ ("host-a", 1.0, 100); ("host-b", 2.5, 130); ("host-c", 0.75, 90) ]
    |> List.map (fun (h, w, ts) ->
           let p, _ = P.profile_shard ~host:h ~weight:w ~timestamp:ts build ~input in
           (h, Fdata.to_string p))
  in
  let streamed =
    Merge.merge_stream
      ~opts:{ Merge.default_options with Merge.decay = Some 0.001 }
      texts
  in
  Alcotest.(check string) "bmerge streaming" (digest_of "bmerge")
    (md5 (Fdata.to_string streamed))

(* The same pin at mega shape: [Bolt.optimize -j 1] on the input the
   dataflow-emit suite checks against its oracles (400 mostly cold
   functions, 6,000 profile lines), both its output bytes and its
   report's manifest sections (counters, profile quality, dyno-stats,
   layout scores, diagnostics in order). *)
let mega_golden_digests () =
  let m = Gen.gen_mega ~seed:5 ~funcs:400 ~fdata_lines:6000 () in
  let exe = Objfile.of_string m.Gen.mg_belf in
  let prof, _ = Fdata.parse m.Gen.mg_fdata in
  let opts = { Bolt_core.Opts.default with Bolt_core.Opts.jobs = 1 } in
  let out, report = Bolt_core.Bolt.optimize ~opts exe prof in
  Alcotest.(check string) "obolt mega j=1" (digest_of "obolt_mega_j1")
    (md5 (Objfile.to_string out));
  Alcotest.(check string) "obolt mega report" (digest_of "obolt_mega_report")
    (md5
       (Bolt_obs.Json.to_string
          (Bolt_obs.Json.Obj (Bolt_core.Bolt.manifest_sections report))))

(* The obs metrics registry [Bolt.optimize] leaves on the same input
   with a live [Obs], at -j 1 and -j 4: every counter and gauge, each
   pass's funcs_modified among them. *)
let mega_metrics_digest () =
  let m = Gen.gen_mega ~seed:5 ~funcs:400 ~fdata_lines:6000 () in
  let exe = Objfile.of_string m.Gen.mg_belf in
  let prof, _ = Fdata.parse m.Gen.mg_fdata in
  List.iter
    (fun jobs ->
      let obs = Bolt_obs.Obs.create ~name:"bolt" () in
      let opts = { Bolt_core.Opts.default with Bolt_core.Opts.jobs } in
      ignore (Bolt_core.Bolt.optimize ~opts ~obs exe prof);
      Alcotest.(check string)
        (Printf.sprintf "obs metrics j=%d" jobs)
        (digest_of "obolt_mega_metrics")
        (md5 (Bolt_obs.Json.to_string (Bolt_obs.Metrics.to_json obs.Bolt_obs.Obs.metrics))))
    [ 1; 4 ]

(* [Bolt.optimize -j 1] on a non-LTO relocations-mode build, whose
   cross-module calls go through PLT stubs: the rewrite re-emits each
   stub in .text.  The input is the fault-injection base. *)
let plt_golden_digest () =
  let b = Lazy.force Fault_base.base_rel in
  let stubs =
    List.filter
      (fun (s : Bolt_obj.Types.symbol) -> s.sym_section = ".plt")
      b.Fault_base.exe.Objfile.symbols
  in
  Alcotest.(check int) "PLT stubs" 13 (List.length stubs);
  let opts = { Bolt_core.Opts.default with Bolt_core.Opts.jobs = 1 } in
  let out, _ = Bolt_core.Bolt.optimize ~opts b.Fault_base.exe b.Fault_base.prof in
  Alcotest.(check string) "obolt plt j=1" (digest_of "obolt_plt_j1")
    (md5 (Objfile.to_string out))

(* ------------------------------------------------------------------ *)
(* Mega-workload smoke: the bench's generator, at unit-test scale     *)

let mega_parity () =
  let m = Gen.gen_mega ~funcs:96 ~fdata_lines:2_500 () in
  let belf = m.Gen.mg_belf in
  Alcotest.(check bool) "belf round-trip" true
    (Objfile.to_string (Objfile.of_string belf) = belf);
  let p, w = Fdata.parse m.Gen.mg_fdata in
  Alcotest.(check int) "mega fdata clean" 0 (List.length w);
  Alcotest.(check bool) "fdata parsers agree" true
    ((p, w) = Oracle.parse_legacy m.Gen.mg_fdata);
  Alcotest.(check bool) "mega has fingerprints" true (p.Fdata.fingerprints <> []);
  Alcotest.(check int) "line count" m.Gen.mg_fdata_lines
    (List.length
       (String.split_on_char '\n' (String.trim m.Gen.mg_fdata)))

(* ------------------------------------------------------------------ *)
(* Fdata.accumulate == the hashtable accumulator it replaced          *)

type feed_record =
  | Fb of Fdata.branch
  | Ff of Fdata.range
  | Fs of Fdata.sample

let gen_feed =
  let open QCheck.Gen in
  let func = oneofl [ "main"; "work"; "f_1"; "x"; "mf_000001"; "mf_00001" ] in
  let off = int_range 0 12 in
  let count =
    frequency
      [
        (8, map Int64.of_int (int_range 0 1_000));
        (1, map (fun d -> Int64.sub Int64.max_int (Int64.of_int d)) (int_range 0 3));
      ]
  in
  let record =
    frequency
      [
        ( 5,
          map
            (fun ((ff, fo), (tf, to_), (c, m)) ->
              Fb
                {
                  Fdata.br_from_func = ff;
                  br_from_off = fo;
                  br_to_func = tf;
                  br_to_off = to_;
                  br_count = c;
                  br_mispreds = m;
                })
            (triple (pair func off) (pair func off) (pair count count)) );
        ( 2,
          map
            (fun ((f, s), l, c) ->
              Ff { Fdata.rg_func = f; rg_start = s; rg_end = s + l; rg_count = c })
            (triple (pair func off) (int_range 0 4) count) );
        ( 2,
          map
            (fun ((f, o), c) -> Fs { Fdata.sm_func = f; sm_off = o; sm_count = c })
            (pair (pair func off) count) );
      ]
  in
  (* a short feed, or one where every kind is longer than a chunk and
     every key repeats: each kind's base cycled past the chunk boundary,
     so its last chunk holds only part of the base, then a few fresh
     records *)
  let cycled base =
    int_range 0 (max 0 (List.length base - 1)) >>= fun past ->
    let base = Array.of_list base in
    return
      (if base = [||] then []
       else
         List.init (Fdata.fold_chunk + past) (fun i ->
             base.(i mod Array.length base)))
  in
  frequency
    [
      (9, list_size (int_range 0 300) record);
      ( 1,
        list_size (int_range 3 200) record >>= fun base ->
        let kind k = List.filter (fun r -> k r) base in
        cycled (kind (function Fb _ -> true | _ -> false)) >>= fun b ->
        cycled (kind (function Ff _ -> true | _ -> false)) >>= fun f ->
        cycled (kind (function Fs _ -> true | _ -> false)) >>= fun s ->
        list_size (int_range 0 50) record >>= fun fresh ->
        return (b @ f @ s @ fresh) );
    ]

let prop_accumulate_parity =
  QCheck.Test.make ~name:"fdata accumulate == hashtable accumulator" ~count:200
    (QCheck.make
       ~print:(fun recs -> Printf.sprintf "%d records" (List.length recs))
       gen_feed)
    (fun recs ->
      let feed ~branch ~range ~sample =
        List.iter
          (function Fb b -> branch b | Ff r -> range r | Fs s -> sample s)
          recs
      in
      let t =
        {
          Fdata.empty with
          Fdata.header = Some { Fdata.no_header with Fdata.hd_host = "fleet" };
        }
      in
      let p = Fdata.accumulate feed t and o = Oracle.accumulate feed t in
      Fdata.to_string p = Fdata.to_string o
      && p.Fdata.total_samples = o.Fdata.total_samples)

(* ------------------------------------------------------------------ *)
(* sat_scale near the saturation boundary                             *)

let sat_scale_boundary () =
  (* identity scale is exact even where Int64.to_float rounds up *)
  let near = Int64.sub Int64.max_int 512L in
  Alcotest.(check int64) "identity near max" near (Fdata.sat_scale near 1.0);
  Alcotest.(check int64) "identity at max" Int64.max_int
    (Fdata.sat_scale Int64.max_int 1.0);
  (* the float path still saturates cleanly just past the boundary *)
  Alcotest.(check int64) "x1.5 near max saturates" Int64.max_int
    (Fdata.sat_scale near 1.5);
  let half = Fdata.sat_scale near 0.5 in
  Alcotest.(check bool) "half below max" true (half < Int64.max_int && half > 0L);
  Alcotest.(check int64) "zero factor" 0L (Fdata.sat_scale near 0.0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_parse_parity;
    QCheck_alcotest.to_alcotest prop_strict_parity;
    QCheck_alcotest.to_alcotest prop_scan_parity;
    QCheck_alcotest.to_alcotest prop_emit_parity;
    QCheck_alcotest.to_alcotest prop_reader_parity;
    QCheck_alcotest.to_alcotest prop_text_emitters;
    QCheck_alcotest.to_alcotest prop_accumulate_parity;
    Alcotest.test_case "buf units" `Quick buf_units;
    Alcotest.test_case "belf fixtures old-vs-new" `Quick belf_fixture_parity;
    Alcotest.test_case "fdata fixtures old-vs-new" `Quick fdata_fixture_parity;
    Alcotest.test_case "golden digests (pre-refactor bytes)" `Slow golden_digests;
    Alcotest.test_case "golden digests at mega shape" `Quick mega_golden_digests;
    Alcotest.test_case "obs metrics at mega shape (-j1, -j4)" `Quick mega_metrics_digest;
    Alcotest.test_case "golden digests with PLT stubs" `Quick plt_golden_digest;
    Alcotest.test_case "mega workload parity" `Quick mega_parity;
    Alcotest.test_case "sat_scale boundary" `Quick sat_scale_boundary;
  ]
