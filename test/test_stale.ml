(* Stale-profile recovery: fingerprint matching units (exact renames,
   fuzzy offset remapping, count inference, clean drops, deterministic
   tie refusal), BELF v5 fingerprint round-trips with v4 read-compat,
   match_profile offset boundaries, [Fingerprint.compute] against
   [Oracle.fingerprints] (the rescanning computation it replaced) on
   built and bolted binaries and on synthetic text sections, and the
   subsystem's acceptance check — a revision N-1 profile driven through
   the recovery path must keep at least 70% of the fresh-profile win on
   the fleet workload. *)

module Fdata = Bolt_profile.Fdata
module SM = Bolt_profile.Stale_match
module F = Bolt_obj.Fingerprint
module Objfile = Bolt_obj.Objfile
module Buf = Bolt_obj.Buf
module Gen = Bolt_workloads.Gen
module Workloads = Bolt_workloads.Workloads
module FS = Bolt_fleet.Fleet_sim
module Merge = Bolt_fleet.Merge
module Quality = Bolt_fleet.Quality
module Monitor = Bolt_fleet.Monitor
module P = Bolt_pipeline.Pipeline
module Machine = Bolt_sim.Machine
module Driver = Bolt_minic.Driver

(* ------------------------------------------------------------------ *)
(* Builders                                                           *)

let mk_block off size oh sh =
  { F.bk_off = off; bk_size = size; bk_opcode_hash = oh; bk_shape_hash = sh }

let mk_func ?(calls = []) name size oh ch blocks =
  {
    F.fp_func = name;
    fp_size = size;
    fp_opcode_hash = oh;
    fp_cfg_hash = ch;
    fp_calls = calls;
    fp_blocks = blocks;
  }

let mk_prof ?(build = "OLD") ?(fps = []) ?(branches = []) ?(ranges = [])
    ?(samples = []) () =
  {
    Fdata.lbr = true;
    header =
      Some
        {
          Fdata.hd_host = "h";
          hd_build_id = build;
          hd_timestamp = 0;
          hd_events = 0L;
          hd_weight = 1.0;
        };
    branches;
    ranges;
    samples;
    total_samples = 0L;
    fingerprints = fps;
  }

let br ff fo tf to_ c =
  {
    Fdata.br_from_func = ff;
    br_from_off = fo;
    br_to_func = tf;
    br_to_off = to_;
    br_count = c;
    br_mispreds = 0L;
  }

let recover_exn ~fps ~build p =
  match SM.recover_if_stale ~fingerprints:fps ~build_id:build p with
  | Some r -> r
  | None -> Alcotest.fail "expected recovery to trigger"

(* ------------------------------------------------------------------ *)
(* Matching tiers                                                     *)

(* A pure rename: identical hashes under a new name.  Records keep
   their offsets, only the name changes. *)
let test_exact_rename () =
  let blocks = [ mk_block 0 4 10 20; mk_block 4 4 11 21 ] in
  let old_fp = mk_func ~calls:[ "leaf" ] "old_fn" 8 100 200 blocks in
  let new_fp = mk_func ~calls:[ "leaf" ] "new_fn" 8 100 200 blocks in
  let p =
    mk_prof ~fps:[ old_fp ]
      ~branches:[ br "old_fn" 5 "old_fn" 4 10L; br "caller" 0 "old_fn" 0 3L ]
      ()
  in
  let p', st = recover_exn ~fps:[ new_fp ] ~build:"NEW" p in
  Alcotest.(check int) "one function" 1 st.SM.st_funcs;
  Alcotest.(check int) "exact" 1 st.SM.st_exact;
  Alcotest.(check int) "records kept" 2 st.SM.st_records_kept;
  List.iter
    (fun (b : Fdata.branch) ->
      Alcotest.(check bool) "no stale name" false
        (b.br_from_func = "old_fn" || b.br_to_func = "old_fn"))
    p'.Fdata.branches;
  let intra =
    List.find (fun (b : Fdata.branch) -> b.br_from_func = "new_fn") p'.Fdata.branches
  in
  Alcotest.(check int) "offset untouched" 5 intra.Fdata.br_from_off;
  (* the recovered profile describes the target revision *)
  Alcotest.(check string) "restamped" "NEW"
    (Option.get p'.Fdata.header).Fdata.hd_build_id;
  Alcotest.(check bool) "carries target fingerprints" true
    (p'.Fdata.fingerprints = [ new_fp ])

(* A light edit: same name, entry block grew, later block intact.  The
   positional alignment remaps every offset through the edit. *)
let test_fuzzy_remap () =
  let old_fp =
    mk_func "f" 16 100 200 [ mk_block 0 8 10 20; mk_block 8 8 11 21 ]
  in
  let new_fp =
    mk_func "f" 20 101 200 [ mk_block 0 12 99 20; mk_block 12 8 11 21 ]
  in
  let p =
    mk_prof ~fps:[ old_fp ]
      ~branches:[ br "f" 9 "f" 8 10L ]
      ~ranges:[ { Fdata.rg_func = "f"; rg_start = 0; rg_end = 9; rg_count = 5L } ]
      ~samples:
        [
          { Fdata.sm_func = "f"; sm_off = 1; sm_count = 2L };
          (* past every old block: no containment, must drop *)
          { Fdata.sm_func = "f"; sm_off = 400; sm_count = 9L };
        ]
      ()
  in
  let p', st = recover_exn ~fps:[ new_fp ] ~build:"NEW" p in
  Alcotest.(check int) "fuzzy" 1 st.SM.st_fuzzy;
  (match p'.Fdata.branches with
  | [ b ] ->
      (* source off 9 sat 1 byte into old block 1 -> 1 byte into new
         block 1 (12+1); target off 8 was a block start -> 12 *)
      Alcotest.(check int) "from remapped" 13 b.Fdata.br_from_off;
      Alcotest.(check int) "to remapped" 12 b.Fdata.br_to_off
  | bs -> Alcotest.failf "expected 1 branch, got %d" (List.length bs));
  (match p'.Fdata.ranges with
  | [ r ] ->
      Alcotest.(check int) "range start" 0 r.Fdata.rg_start;
      Alcotest.(check int) "range end" 13 r.Fdata.rg_end
  | rs -> Alcotest.failf "expected 1 range, got %d" (List.length rs));
  Alcotest.(check int) "off-the-end sample dropped" 1
    (List.length p'.Fdata.samples)

(* Heavy edit: no block aligns, so offsets are noise.  Function-level
   evidence must survive as an inferred entry count. *)
let test_inferred_entry () =
  let old_fp =
    mk_func "g" 16 100 200
      [ mk_block 0 4 1 2; mk_block 4 4 3 4; mk_block 8 4 5 6; mk_block 12 4 7 8 ]
  in
  let new_fp =
    mk_func "g" 12 101 201
      [ mk_block 0 4 30 40; mk_block 4 4 50 60; mk_block 8 4 70 80 ]
  in
  let p =
    mk_prof ~fps:[ old_fp ]
      ~branches:[ br "g" 5 "g" 8 100L; br "g" 13 "g" 4 40L ]
      ~samples:[ { Fdata.sm_func = "g"; sm_off = 9; sm_count = 7L } ]
      ()
  in
  let p', st = recover_exn ~fps:[ new_fp ] ~build:"NEW" p in
  Alcotest.(check int) "inferred" 1 st.SM.st_inferred;
  (* intra edges drop; the hottest one becomes a synthetic entry count
     for the dataflow repair to spread *)
  (match p'.Fdata.branches with
  | [ b ] ->
      Alcotest.(check string) "ghost caller" SM.ghost_caller b.Fdata.br_from_func;
      Alcotest.(check string) "into g" "g" b.Fdata.br_to_func;
      Alcotest.(check int) "entry offset" 0 b.Fdata.br_to_off;
      Alcotest.(check int64) "hottest edge" 100L b.Fdata.br_count
  | bs -> Alcotest.failf "expected 1 branch, got %d" (List.length bs));
  (* samples keep function-level hotness at the entry *)
  (match p'.Fdata.samples with
  | [ s ] -> Alcotest.(check int) "sample pinned to entry" 0 s.Fdata.sm_off
  | ss -> Alcotest.failf "expected 1 sample, got %d" (List.length ss))

(* A deleted function's records vanish rather than spraying
   unknown-function diagnostics downstream. *)
let test_dropped_deleted () =
  let old_fp = mk_func ~calls:[ "x" ] "dead" 8 100 200 [ mk_block 0 8 10 20 ] in
  let new_fp = mk_func "other" 4 999 888 [] in
  let p =
    mk_prof ~fps:[ old_fp ]
      ~branches:[ br "dead" 4 "dead" 0 10L; br "live" 0 "dead" 0 5L ]
      ~samples:[ { Fdata.sm_func = "dead"; sm_off = 2; sm_count = 3L } ]
      ()
  in
  let p', st = recover_exn ~fps:[ new_fp ] ~build:"NEW" p in
  Alcotest.(check int) "dropped" 1 st.SM.st_dropped;
  Alcotest.(check int) "no records survive" 0 st.SM.st_records_kept;
  Alcotest.(check int) "branches gone" 0 (List.length p'.Fdata.branches)

(* Two structurally identical rename candidates: refusing to guess is
   the deterministic choice. *)
let test_ambiguous_rename_refused () =
  let blocks = [ mk_block 0 4 10 20 ] in
  let old_fp = mk_func "o" 4 100 200 blocks in
  let n1 = mk_func "n1" 4 100 200 blocks in
  let n2 = mk_func "n2" 4 100 200 blocks in
  let p = mk_prof ~fps:[ old_fp ] ~branches:[ br "o" 2 "o" 0 10L ] () in
  let _, st = recover_exn ~fps:[ n1; n2 ] ~build:"NEW" p in
  Alcotest.(check int) "tie refused" 1 st.SM.st_dropped;
  Alcotest.(check int) "nothing matched" 0 (st.SM.st_exact + st.SM.st_fuzzy)

(* Recovery must not trigger on fresh, unstamped or fingerprint-less
   profiles. *)
let test_no_false_trigger () =
  let fp = mk_func "f" 4 1 2 [ mk_block 0 4 1 2 ] in
  let none = SM.recover_if_stale ~fingerprints:[ fp ] ~build_id:"B" in
  Alcotest.(check bool) "fresh profile untouched" true
    (none (mk_prof ~build:"B" ~fps:[ fp ] ()) = None);
  Alcotest.(check bool) "unstamped profile untouched" true
    (none { (mk_prof ~fps:[ fp ] ()) with Fdata.header = None } = None);
  Alcotest.(check bool) "no shard fingerprints: untouched" true
    (none (mk_prof ~build:"OLD" ()) = None);
  Alcotest.(check bool) "no target fingerprints: untouched" true
    (SM.recover_if_stale ~fingerprints:[] ~build_id:"B"
       (mk_prof ~build:"OLD" ~fps:[ fp ] ())
    = None)

(* ------------------------------------------------------------------ *)
(* BELF v5: fingerprints travel with the binary                       *)

let small_src =
  {| fn helper(x) { if (x % 4 < 2) { return x + 3; } else { return x * 2; } }
     fn main() {
       var i = 0;
       var s = 0;
       while (i < 500) { s = s + helper(i); i = i + 1; }
       out s;
       return 0;
     } |}

let compile srcs = (Driver.compile srcs).Driver.exe

let test_v5_roundtrip () =
  let exe = compile [ ("m", small_src) ] in
  Alcotest.(check bool) "linker stamps fingerprints" true
    (exe.Objfile.fingerprints <> []);
  let exe' = Objfile.of_string (Objfile.to_string exe) in
  Alcotest.(check bool) "v5 round-trips" true (exe' = exe);
  (* the stamp is exactly what a recompute over the image yields *)
  Alcotest.(check bool) "stamp = recompute" true
    (F.compute ~sections:exe'.Objfile.sections ~symbols:exe'.Objfile.symbols
    = exe'.Objfile.fingerprints)

(* The rewriter must restamp: the bolted binary's table describes the
   NEW layout, ready to recover the next generation of profiles. *)
let test_rewrite_restamps () =
  let exe = compile [ ("m", small_src) ] in
  let sampling = { P.default_sampling with Machine.period = 97 } in
  let o = Machine.run ~sampling exe ~input:[||] in
  let prof =
    match o.Machine.profile with
    | Some raw -> Bolt_profile.Perf2bolt.convert exe raw
    | None -> Fdata.empty
  in
  let exe', _ = Bolt_core.Bolt.optimize exe prof in
  Alcotest.(check bool) "bolted binary stamped" true
    (exe'.Objfile.fingerprints <> []);
  Alcotest.(check bool) "stamp matches bolted layout" true
    (F.compute ~sections:exe'.Objfile.sections ~symbols:exe'.Objfile.symbols
    = exe'.Objfile.fingerprints)

(* A v4 file (build-id but no fingerprint table) still loads. *)
let test_v4_compat () =
  let exe = compile [ ("m", small_src) ] in
  let stripped = { exe with Objfile.fingerprints = [] } in
  let v5 = Objfile.to_string stripped in
  (* v4 layout = v5 minus the trailing (empty) fingerprint list *)
  let tail_len =
    let b = Buf.writer () in
    Buf.list b Buf.str [];
    String.length (Buf.contents b)
  in
  let v4 = Bytes.of_string (String.sub v5 0 (String.length v5 - tail_len)) in
  Bytes.set v4 4 '\x04' (* version byte follows the 4-byte magic *);
  let exe' = Objfile.of_string (Bytes.to_string v4) in
  Alcotest.(check string) "build-id survives" exe.Objfile.build_id
    exe'.Objfile.build_id;
  Alcotest.(check bool) "payload intact, no fingerprints" true (exe' = stripped)

(* ------------------------------------------------------------------ *)
(* match_profile offset containment at the boundaries                 *)

let test_match_boundaries () =
  let exe = compile [ ("m", small_src) ] in
  let helper = Option.get (Objfile.find_symbol exe "helper") in
  let size = helper.Bolt_obj.Types.sym_size in
  let prof =
    {
      Fdata.empty with
      Fdata.lbr = true;
      branches =
        [
          (* source exactly at the entry block start *)
          br "helper" 0 "helper" 0 5L;
          (* source and target both past the function's end *)
          br "helper" (size + 64) "helper" 4 7L;
          br "helper" 4 "helper" (size + 64) 7L;
          (* unknown function (intra record, so the name is resolved) *)
          br "nosuch" 4 "nosuch" 8 1L;
        ];
      ranges =
        [
          (* empty range: start == end *)
          { Fdata.rg_func = "helper"; rg_start = 0; rg_end = 0; rg_count = 3L };
          (* range hanging off the end *)
          {
            Fdata.rg_func = "helper";
            rg_start = size;
            rg_end = size + 8;
            rg_count = 2L;
          };
        ];
      samples = [ { Fdata.sm_func = "helper"; sm_off = size + 64; sm_count = 1L } ];
    }
  in
  let ctx = Test_bolt_core.build_ctx exe in
  let st = Bolt_core.Match_profile.attach ctx prof in
  Bolt_core.Match_profile.finalize ctx ~lbr:true ~trust_fallthrough:true;
  Alcotest.(check bool) "off-the-end records counted stale" true
    (st.Bolt_core.Match_profile.stale_records > 0);
  Alcotest.(check bool) "unknown function counted" true
    (st.Bolt_core.Match_profile.unknown_funcs > 0);
  (* an empty profile attaches as a no-op *)
  let ctx2 = Test_bolt_core.build_ctx exe in
  let st2 = Bolt_core.Match_profile.attach ctx2 Fdata.empty in
  Bolt_core.Match_profile.finalize ctx2 ~lbr:true ~trust_fallthrough:true;
  Alcotest.(check int) "empty profile matches nothing" 0
    st2.Bolt_core.Match_profile.matched_branches

(* ------------------------------------------------------------------ *)
(* Fingerprint.compute against the rescanning oracle                  *)

module Isa = Bolt_isa
module T = Bolt_obj.Types

let fps_agree ~sections ~symbols =
  F.compute ~sections ~symbols = Oracle.fingerprints ~sections ~symbols

let exe_fps_agree (exe : Objfile.t) =
  fps_agree ~sections:exe.Objfile.sections ~symbols:exe.Objfile.symbols

let has_alias (exe : Objfile.t) =
  let funcs =
    List.filter
      (fun (s : T.symbol) -> s.sym_kind = T.Func && s.sym_size > 0)
      exe.Objfile.symbols
  in
  List.exists
    (fun (a : T.symbol) ->
      List.exists
        (fun (b : T.symbol) -> a.sym_value = b.sym_value && a.sym_name < b.sym_name)
        funcs)
    funcs

(* Inputs built with linker ICF (folded twins share an address) and
   their bolted outputs, in relocations and in-place modes; in-place
   outputs put split-off cold code in [.bolt.text].  Every alias of a
   folded twin must resolve to the function discovery registered, or
   the output calls into code that moved. *)
let test_fingerprints_built () =
  List.iter
    (fun (seed, emit_relocs) ->
      let label = Printf.sprintf "seed %d, emit_relocs %b" seed emit_relocs in
      let w =
        Gen.gen
          {
            Workloads.hhvm_like with
            Gen.seed;
            funcs = 80;
            modules = 3;
            iterations = 40;
            dup_plain_families = 3;
            dup_plain_copies = 2;
            asm_dispatchers = 1;
            top_funcs = 4;
          }
      in
      let cc =
        { Driver.default_options with Driver.emit_relocs; linker_icf = true }
      in
      let r =
        Driver.compile ~options:cc ~externals:w.Gen.externals
          ~extra_objs:w.Gen.extra_objs w.Gen.sources
      in
      let b = { P.exe = r.Driver.exe; cc } in
      let sampling = { P.default_sampling with Machine.period = 97 } in
      let prof, _ = P.profile ~sampling b ~input:w.Gen.input in
      let b', _ = P.bolt b prof in
      let base = P.run b ~input:w.Gen.input and opt = P.run b' ~input:w.Gen.input in
      Alcotest.(check bool) (label ^ ": output behaves like input") true
        (P.same_behaviour base opt);
      Alcotest.(check bool) (label ^ ": input has aliases") true (has_alias b.P.exe);
      Alcotest.(check bool) (label ^ ": input") true (exe_fps_agree b.P.exe);
      Alcotest.(check bool) (label ^ ": output") true (exe_fps_agree b'.P.exe);
      if emit_relocs then
        (* every alias moved with the function discovery registered *)
        Alcotest.(check (list string)) (label ^ ": output verifies") []
          (List.map
             (fun (i : Bolt_obj.Verify.issue) -> i.v_what)
             (Bolt_obj.Verify.fatal (Bolt_obj.Verify.run b'.P.exe)))
      else
        Alcotest.(check bool) (label ^ ": output has .bolt.text") true
          (Objfile.find_section b'.P.exe ".bolt.text" <> None))
    [ (1, true); (1, false); (2, true); (2, false) ]

(* Synthetic text sections: a random instruction stream encoded at
   [text_at], with undecodable tail bytes sometimes, and a symbol table
   of equal-address aliases, nested and overlapping ranges, zero sizes
   and ranges past the section's end.  Direct calls land on function
   starts, function middles, bytes no function covers, bytes two
   functions cover, and anywhere. *)
let text_at = 0x40_0000

let gen_insn =
  let open QCheck.Gen in
  let open Isa.Insn in
  let reg = map Isa.Reg.of_int (int_range 0 7) in
  let rel = Imm 0 in
  frequency
    [
      (3, map (fun k -> Nop k) (int_range 1 6));
      (2, return Ret);
      (1, return Halt);
      (1, return Throw);
      (3, map2 (fun d r -> Alu_rr (Add, d, r)) reg reg);
      (2, map (fun n -> Alu_ri (Cmp, Isa.Reg.r1, Imm n)) (int_range 0 99));
      (1, map (fun r -> Push r) reg);
      (2, map (fun w -> Jmp (rel, w)) (oneofl [ W8; W32 ]));
      (2, map2 (fun c w -> Jcc (c, rel, w)) (oneofl Isa.Cond.all) (oneofl [ W8; W32 ]));
      (4, return (Call rel));
      (1, map (fun r -> Call_ind r) reg);
      (1, map (fun r -> Jmp_ind r) reg);
    ]

let gen_text =
  let open QCheck.Gen in
  let* insns = list_size (int_range 1 40) gen_insn in
  let* tail = int_range 0 3 in
  let code = List.fold_left (fun acc i -> acc + Isa.Insn.size i) 0 insns in
  let size = code + tail in
  (* symbols: fresh ranges, aliases of an earlier start, nested ranges *)
  let* nsyms = int_range 1 8 in
  let rec syms k acc =
    if k = nsyms then return (List.rev acc)
    else
      let* name = oneofl [ "a"; "b"; "c"; "d" ] in
      let name = Printf.sprintf "%s%d" name k in
      let* kind = frequency [ (6, return T.Func); (1, return T.Object) ] in
      let* value, sz =
        match acc with
        | [] -> pair (int_range (-4) (size + 4)) (int_range 0 48)
        | prev ->
            let* (p : T.symbol) = oneofl prev in
            frequency
              [
                (3, pair (int_range (-4) (size + 4)) (int_range 0 48));
                (2, map (fun sz -> (p.sym_value - text_at, sz)) (int_range 0 48));
                ( 2,
                  let* d = int_range 0 (max 0 (p.sym_size - 1)) in
                  map (fun sz -> (p.sym_value - text_at + d, sz)) (int_range 0 24) );
              ]
      in
      syms (k + 1)
        ({
           T.sym_name = name;
           sym_kind = kind;
           sym_bind = T.Global;
           sym_section = ".text";
           sym_value = text_at + value;
           sym_size = sz;
         }
        :: acc)
  in
  let* symbols = syms 0 [] in
  let funcs =
    List.filter (fun (s : T.symbol) -> s.sym_kind = T.Func && s.sym_size > 0) symbols
  in
  let covers a (s : T.symbol) = a >= s.sym_value && a < s.sym_value + s.sym_size in
  let cover_count a = List.length (List.filter (covers a) funcs) in
  let span = List.init (size + 16) (fun k -> text_at - 8 + k) in
  let pick_or_any xs = if xs = [] then int_range (text_at - 8) (text_at + size + 8) else oneofl xs in
  let call_target =
    frequency
      [
        (2, pick_or_any (List.map (fun (s : T.symbol) -> s.sym_value) funcs));
        ( 2,
          if funcs = [] then pick_or_any []
          else
            let* (s : T.symbol) = oneofl funcs in
            map (fun d -> s.sym_value + d) (int_range 0 (s.sym_size - 1)) );
        (1, pick_or_any (List.filter (fun a -> cover_count a = 0) span));
        (2, pick_or_any (List.filter (fun a -> cover_count a >= 2) span));
        (1, int_range (text_at - 64) (text_at + size + 64));
      ]
  in
  (* aim every pc-relative operand; a short branch keeps a rel that fits *)
  let rec aim off acc = function
    | [] -> return (List.rev acc)
    | i :: rest ->
        let next = off + Isa.Insn.size i in
        let* i =
          match i with
          | Isa.Insn.Call _ ->
              map (fun t -> Isa.Insn.Call (Imm (t - (text_at + next)))) call_target
          | Jmp (_, W8) -> map (fun r -> Isa.Insn.Jmp (Imm r, W8)) (int_range (-128) 127)
          | Jcc (c, _, W8) ->
              map (fun r -> Isa.Insn.Jcc (c, Imm r, W8)) (int_range (-128) 127)
          | Jmp (_, W32) ->
              map (fun t -> Isa.Insn.Jmp (Imm (t - next), W32)) (int_range (-8) (size + 8))
          | Jcc (c, _, W32) ->
              map
                (fun t -> Isa.Insn.Jcc (c, Imm (t - next), W32))
                (int_range (-8) (size + 8))
          | i -> return i
        in
        aim next (i :: acc) rest
  in
  let+ insns = aim 0 [] insns in
  let data = Bytes.make size '\xff' in
  ignore (List.fold_left (fun pos i -> pos + Isa.Codec.encode_into data pos i) 0 insns);
  let text =
    { T.sec_name = ".text"; sec_kind = T.Text; sec_addr = text_at; sec_data = data; sec_size = size }
  in
  (text, symbols)

let print_text ((text : T.section), symbols) =
  let insns =
    let rec go pos acc =
      if pos >= text.T.sec_size then List.rev acc
      else
        match Isa.Codec.decode text.T.sec_data pos with
        | i, sz -> go (pos + sz) (Printf.sprintf "+%d %s" pos (Isa.Insn.to_string i) :: acc)
        | exception _ -> List.rev (Printf.sprintf "+%d <undecodable>" pos :: acc)
    in
    go 0 []
  in
  String.concat "\n"
    (insns
    @ List.map
        (fun (s : T.symbol) ->
          Printf.sprintf "%s %s [+%d, +%d)" s.T.sym_name
            (if s.T.sym_kind = T.Func then "func" else "object")
            (s.T.sym_value - text_at)
            (s.T.sym_value - text_at + s.T.sym_size))
        symbols)

let prop_fingerprints =
  QCheck.Test.make ~name:"fingerprints == rescanning oracle (synthetic text)" ~count:500
    (QCheck.make ~print:print_text gen_text)
    (fun (text, symbols) ->
      let rodata = { text with T.sec_name = ".rodata"; sec_kind = T.Rodata; sec_addr = text_at + text.T.sec_size } in
      fps_agree ~sections:[ text; rodata ] ~symbols)

(* The function-address index against a brute-force scan: at every
   address around the synthetic text, [at] and [covering] name the first
   function symbol in (start, name) order that starts there or whose
   range holds it, and [find] the first of a name. *)
let prop_symtab =
  QCheck.Test.make ~name:"symtab == brute-force scan (synthetic text)" ~count:500
    (QCheck.make ~print:print_text gen_text)
    (fun (text, symbols) ->
      let idx = Bolt_obj.Symtab.create symbols in
      let first_where p =
        List.fold_left
          (fun best (s : T.symbol) ->
            if s.sym_kind <> T.Func || s.sym_size <= 0 || not (p s) then best
            else
              match best with
              | Some (b : T.symbol)
                when compare (b.sym_value, b.sym_name) (s.sym_value, s.sym_name) <= 0 ->
                  best
              | _ -> Some s)
          None symbols
      in
      let name = Option.map (fun (s : T.symbol) -> s.sym_name) in
      List.for_all
        (fun a ->
          name (Bolt_obj.Symtab.at idx a)
          = name (first_where (fun s -> s.sym_value = a))
          && name (Bolt_obj.Symtab.covering idx a)
             = name (first_where (fun s -> a >= s.sym_value && a < s.sym_value + s.sym_size)))
        (List.init (text.T.sec_size + 72) (fun k -> text_at - 8 + k))
      && List.for_all
           (fun (s : T.symbol) ->
             name (Bolt_obj.Symtab.find idx s.sym_name)
             = name (first_where (fun f -> f.sym_name = s.sym_name)))
           symbols)

let rand = Random.State.make [| 2401 |]

(* ------------------------------------------------------------------ *)
(* End to end: revision N-1 profile on revision N                     *)

let drift_params =
  {
    Workloads.hhvm_like with
    Gen.funcs = 160;
    modules = 4;
    input_driven = true;
    dispatch_thresholds = 12;
  }

(* The acceptance bar: a stale shard pushed through fingerprint
   recovery must keep >= 70% of the fresh-profile win (taken branches,
   the layout objective) on the fleet_sim workload. *)
let test_recovery_e2e () =
  let fresh = FS.compile_params drift_params in
  let old = FS.compile_params (FS.stale_params drift_params) in
  Alcotest.(check bool) "revisions differ" true
    (fresh.P.exe.Objfile.build_id <> old.P.exe.Objfile.build_id);
  let input = Workloads.token_input ~seed:99 ~n:2500 ~mix:80 in
  let sampling = { P.default_sampling with Machine.period = 97 } in
  let fresh_prof, _ =
    P.profile_shard ~sampling ~host:"fresh01" ~timestamp:2 fresh ~input
  in
  let stale_prof, _ =
    P.profile_shard ~sampling ~host:"stale01" ~timestamp:1 old ~input
  in
  Alcotest.(check bool) "shard carries old fingerprints" true
    (stale_prof.Fdata.fingerprints <> []);
  let taken (o : Machine.outcome) = o.Machine.counters.Machine.taken_branches in
  let base = P.run fresh ~input in
  let bf, _ = P.bolt fresh fresh_prof in
  let bs, report = P.bolt fresh stale_prof in
  let o_f = P.run bf ~input in
  let o_s = P.run bs ~input in
  Alcotest.(check bool) "behaviour preserved" true (P.same_behaviour base o_s);
  let win_fresh = taken base - taken o_f in
  let win_stale = taken base - taken o_s in
  Fmt.epr "stale e2e: baseline %d taken, fresh-bolted %d, stale-bolted %d@."
    (taken base) (taken o_f) (taken o_s);
  Alcotest.(check bool) "fresh profile wins" true (win_fresh > 0);
  (match report.Bolt_core.Bolt.r_recovery with
  | None -> Alcotest.fail "no recovery breakdown in the report"
  | Some st ->
      Fmt.epr "stale e2e: recovery %a@." SM.pp_stats st;
      Alcotest.(check bool) "some exact matches" true (st.SM.st_exact > 0);
      Alcotest.(check bool) "some fuzzy matches" true (st.SM.st_fuzzy > 0));
  (* the breakdown lands in the run manifest *)
  (match
     List.assoc_opt "profile_quality" (Bolt_core.Bolt.manifest_sections report)
   with
  | Some (Bolt_obs.Json.Obj fields) -> (
      match List.assoc_opt "recovery" fields with
      | Some (Bolt_obs.Json.Obj _) -> ()
      | _ -> Alcotest.fail "recovery missing from run manifest")
  | _ -> Alcotest.fail "profile_quality section missing");
  if 10 * win_stale < 7 * win_fresh then
    Alcotest.failf "stale profile kept only %d of the fresh win %d" win_stale
      win_fresh;
  (* recovery is deterministic under -j *)
  let b1, _ = P.bolt ~jobs:1 fresh stale_prof in
  let b4, _ = P.bolt ~jobs:4 fresh stale_prof in
  Alcotest.(check bool) "-j byte-identical with recovery" true
    (Objfile.to_string b1.P.exe = Objfile.to_string b4.P.exe)

(* The fleet path: the fleet round recovers stale shards per shard
   before the merge and surfaces the breakdown through the quality
   report and manifest. *)
let test_fleet_recovery () =
  let cfg =
    {
      FS.default_config with
      FS.fc_hosts = 4;
      fc_stale = 2;
      fc_requests = 800;
      fc_params =
        { FS.default_config.FS.fc_params with Gen.funcs = 120; modules = 4 };
      fc_sampling = { P.default_sampling with Machine.period = 97 };
    }
  in
  let r = FS.run cfg in
  let target = r.FS.fr_build.P.exe in
  let shards = FS.loaded_shards r in
  let opts =
    {
      Merge.default_options with
      Merge.expect_build_id = Some target.Objfile.build_id;
    }
  in
  let merged, tick =
    Monitor.observe (Monitor.create ()) ~opts
      ~fingerprints:target.Objfile.fingerprints shards
  in
  let q = tick.Monitor.tk_quality in
  (match q.Quality.q_recovery with
  | None -> Alcotest.fail "expected stale shards to be recovered"
  | Some st ->
      Fmt.epr "fleet recovery: %a@." SM.pp_stats st;
      Alcotest.(check bool) "functions recovered" true
        (st.SM.st_exact + st.SM.st_fuzzy > 0));
  Alcotest.(check int) "staleness assessed pre-recovery" 2
    q.Quality.q_stale_shards;
  Alcotest.(check bool) "breakdown in quality report" true
    (q.Quality.q_recovery <> None);
  (match Quality.manifest_section q with
  | "fleet", Bolt_obs.Json.Obj fields -> (
      match List.assoc_opt "recovery" fields with
      | Some (Bolt_obs.Json.Obj _) -> ()
      | _ -> Alcotest.fail "recovery missing from fleet manifest section")
  | _ -> Alcotest.fail "manifest section shape");
  (* the recovered merge still drives the optimizer safely *)
  let b', report = P.bolt r.FS.fr_build merged in
  Alcotest.(check (list (pair string string)))
    "no quarantine" [] report.Bolt_core.Bolt.r_quarantined;
  let base = P.run r.FS.fr_build ~input:r.FS.fr_fleet_input in
  let opt = P.run b' ~input:r.FS.fr_fleet_input in
  Alcotest.(check bool) "same behaviour" true (P.same_behaviour base opt)

let suite =
  [
    Alcotest.test_case "exact-rename" `Quick test_exact_rename;
    Alcotest.test_case "fuzzy-remap" `Quick test_fuzzy_remap;
    Alcotest.test_case "inferred-entry" `Quick test_inferred_entry;
    Alcotest.test_case "dropped-deleted" `Quick test_dropped_deleted;
    Alcotest.test_case "ambiguous-rename-refused" `Quick
      test_ambiguous_rename_refused;
    Alcotest.test_case "no-false-trigger" `Quick test_no_false_trigger;
    Alcotest.test_case "belf-v5-roundtrip" `Quick test_v5_roundtrip;
    Alcotest.test_case "rewrite-restamps" `Quick test_rewrite_restamps;
    Alcotest.test_case "belf-v4-compat" `Quick test_v4_compat;
    Alcotest.test_case "match-profile-boundaries" `Quick test_match_boundaries;
    Alcotest.test_case "fingerprints-oracle-built" `Quick test_fingerprints_built;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand prop_fingerprints;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand prop_symtab;
    Alcotest.test_case "recovery-e2e-70pct" `Slow test_recovery_e2e;
    Alcotest.test_case "fleet-recovery" `Slow test_fleet_recovery;
  ]
