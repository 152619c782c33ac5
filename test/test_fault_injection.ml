(* Fault injection: corrupted binaries, corrupted profiles, stale
   profiles — the hardened pipeline's acceptance test.

   Every case feeds a deliberately damaged input through the full
   optimizer and demands one of exactly two outcomes:

   - a clean, sanctioned rejection ([Buf.Corrupt], [Context.Bolt_error],
     [Diag.Strict_error], [Diag.Quarantine_limit]) — never a stray
     exception; or
   - a rewritten binary that behaves identically to its (possibly
     damaged) input on the simulator: same output tape, same exit code,
     same crash.

   Corruption families: byte flips in the serialized container,
   truncations, byte flips inside .text of a well-formed container (in
   both relocations and in-place mode), mutated fdata text, stale
   profiles (offset drift, wrong binary), and drifted-revision profiles
   through the fingerprint matcher (edited bodies, renamed symbols,
   deleted functions, mangled fingerprint tables). *)

module Machine = Bolt_sim.Machine
module Objfile = Bolt_obj.Objfile
module Types = Bolt_obj.Types
module Fdata = Bolt_profile.Fdata
module Gen = Bolt_workloads.Gen

(* Deterministic PRNG: the suite must replay byte-for-byte. *)
let mk_rng seed =
  let state = ref (((seed * 2654435761) + 1013904223) land 0x3FFFFFFF) in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    if bound <= 0 then 0 else !state mod bound

(* ---- base workload, built once ---- *)

open Fault_base

(* ---- outcome classification ---- *)

(* What a binary does when run, exceptions folded in: two binaries are
   behaviourally identical iff their classifications are equal. *)
type behaviour =
  | Ran of int list * int * bool (* output, exit code, uncaught exception *)
  | Crashed of string

let behaviour_pp ppf = function
  | Ran (out, code, exn) ->
      Fmt.pf ppf "ran: exit %d, uncaught %b, output %a" code exn
        Fmt.(Dump.list int)
        out
  | Crashed m -> Fmt.pf ppf "crashed: %s" m

let behaviour_t = Alcotest.testable behaviour_pp ( = )

(* Crash messages embed code addresses, and addresses legitimately move
   under relocation (even quarantined functions are re-placed verbatim in
   relocations mode), so compare messages with hex literals masked. *)
let mask_addresses m =
  let is_hex c =
    (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  in
  let b = Buffer.create (String.length m) in
  let n = String.length m in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && m.[!i] = '0' && m.[!i + 1] = 'x' then begin
      Buffer.add_string b "0x_";
      i := !i + 2;
      while !i < n && is_hex m.[!i] do
        incr i
      done
    end
    else begin
      Buffer.add_char b m.[!i];
      incr i
    end
  done;
  Buffer.contents b

let classify exe ~input =
  match Machine.run ~fuel:20_000_000 exe ~input with
  | o -> Ran (o.Machine.output, o.Machine.exit_code, o.Machine.uncaught_exception)
  | exception Machine.Sim_error m -> Crashed (mask_addresses ("sim: " ^ m))
  | exception exn -> Crashed (mask_addresses (Printexc.to_string exn))

(* Run the optimizer; only the four sanctioned exceptions may escape. *)
type bolt_result =
  | Rewritten of Objfile.t * Bolt_core.Bolt.report
  | Rejected of string

let try_bolt ?(opts = Bolt_core.Opts.default) exe prof =
  match Bolt_core.Bolt.optimize ~opts exe prof with
  | out, report -> Rewritten (out, report)
  | exception Bolt_obj.Buf.Corrupt m -> Rejected ("corrupt: " ^ m)
  | exception Bolt_core.Context.Bolt_error m -> Rejected ("bolt-error: " ^ m)
  | exception Bolt_core.Diag.Strict_error m -> Rejected ("strict: " ^ m)
  | exception Bolt_core.Diag.Quarantine_limit n ->
      Rejected (Printf.sprintf "quarantine-limit: %d" n)
  | exception exn ->
      Alcotest.fail
        ("optimize leaked an unsanctioned exception: " ^ Printexc.to_string exn)

let check_preserved name input before_exe result =
  match result with
  | Rejected _ -> () (* clean rejection is always acceptable *)
  | Rewritten (out, _) ->
      Alcotest.check behaviour_t name (classify before_exe ~input)
        (classify out ~input)

(* ---- family 1: byte flips in the serialized container ---- *)

let flip_case i () =
  let b = Lazy.force base_rel in
  let rng = mk_rng (1000 + i) in
  let s = Bytes.of_string (Objfile.to_string b.exe) in
  let flips = 1 + rng 3 in
  for _ = 1 to flips do
    let off = rng (Bytes.length s) in
    Bytes.set s off (Char.chr (rng 256))
  done;
  match Objfile.of_string (Bytes.to_string s) with
  | exception Bolt_obj.Buf.Corrupt _ -> () (* rejected at parse: clean *)
  | exe' ->
      check_preserved
        (Printf.sprintf "flip-%d behaviour preserved" i)
        b.input exe' (try_bolt exe' b.prof)

(* ---- family 2: truncations of the serialized container ---- *)

let truncate_case i () =
  let b = Lazy.force base_rel in
  let s = Objfile.to_string b.exe in
  let keep = String.length s * (i + 1) / 12 in
  match Objfile.of_string (String.sub s 0 keep) with
  | exception Bolt_obj.Buf.Corrupt _ -> ()
  | exe' ->
      check_preserved
        (Printf.sprintf "truncate-%d behaviour preserved" i)
        b.input exe' (try_bolt exe' b.prof)

(* ---- family 3: garbage bytes inside .text of a well-formed file ---- *)

let corrupt_text rng (exe : Objfile.t) =
  (* deep copy through the serializer so the pristine base is untouched *)
  let exe = Objfile.of_string (Objfile.to_string exe) in
  let text =
    List.find (fun (s : Types.section) -> s.sec_name = ".text") exe.sections
  in
  let hits = 2 + rng 8 in
  for _ = 1 to hits do
    let off = rng (Bytes.length text.sec_data) in
    Bytes.set text.sec_data off (Char.chr (rng 256))
  done;
  exe

let text_case i () =
  let b = Lazy.force (if i mod 2 = 0 then base_rel else base_inplace) in
  let exe' = corrupt_text (mk_rng (2000 + i)) b.exe in
  check_preserved
    (Printf.sprintf "text-%d behaviour preserved" i)
    b.input exe' (try_bolt exe' b.prof)

(* ---- family 4: mutated fdata text ---- *)

let mutate_fdata rng text =
  let s = Bytes.of_string text in
  (match rng 4 with
  | 0 ->
      (* sprinkle random bytes *)
      for _ = 1 to 20 do
        Bytes.set s (rng (Bytes.length s)) (Char.chr (rng 256))
      done;
      Bytes.to_string s
  | 1 ->
      (* truncate mid-record *)
      Bytes.sub_string s 0 (rng (Bytes.length s))
  | 2 ->
      (* inject junk lines *)
      String.concat "\n"
        [
          "Z not a record";
          Bytes.to_string s;
          "B one two three";
          "F f -5 -9 nan";
          String.make 200 'x';
        ]
  | _ ->
      (* swap a block of the text with itself shifted: tears many lines *)
      let n = Bytes.length s in
      let cut = rng n in
      Bytes.to_string s
      |> fun t -> String.sub t cut (n - cut) ^ String.sub t 0 cut)

let fdata_case i () =
  let b = Lazy.force base_rel in
  let text' = mutate_fdata (mk_rng (3000 + i)) (Fdata.to_string b.prof) in
  (* lenient parse must never raise, whatever the damage *)
  let prof', _warnings = Fdata.parse text' in
  (* the binary is intact, so BOLT must complete (a worse profile only
     means worse layout) and preserve behaviour *)
  match try_bolt b.exe prof' with
  | Rejected m -> Alcotest.fail ("intact binary rejected: " ^ m)
  | Rewritten (out, _) ->
      Alcotest.check behaviour_t
        (Printf.sprintf "fdata-%d behaviour preserved" i)
        (classify b.exe ~input:b.input)
        (classify out ~input:b.input)

(* ---- family 5: stale profiles ---- *)

let stale_shifted () =
  (* every offset drifted, as after recompiling with small edits (§7) *)
  let b = Lazy.force base_rel in
  let p = b.prof in
  let shift n = n + 7 in
  let prof' =
    {
      p with
      Fdata.branches =
        List.map
          (fun (br : Fdata.branch) ->
            {
              br with
              Fdata.br_from_off = shift br.br_from_off;
              br_to_off = (if br.br_to_off = 0 then 0 else shift br.br_to_off);
            })
          p.Fdata.branches;
      ranges =
        List.map
          (fun (r : Fdata.range) ->
            { r with Fdata.rg_start = shift r.rg_start; rg_end = shift r.rg_end })
          p.Fdata.ranges;
    }
  in
  match try_bolt b.exe prof' with
  | Rejected m -> Alcotest.fail ("stale profile rejected: " ^ m)
  | Rewritten (out, report) ->
      Alcotest.check behaviour_t "shifted-profile behaviour preserved"
        (classify b.exe ~input:b.input)
        (classify out ~input:b.input);
      Alcotest.(check bool)
        "decay is reported" true
        (report.Bolt_core.Bolt.r_profile_stale_records > 0
        || report.Bolt_core.Bolt.r_profile_branches_unmatched > 0)

let stale_wrong_binary () =
  (* a profile collected from an unrelated binary: unknown functions *)
  let b = Lazy.force base_rel in
  let other = build_base ~emit_relocs:true 11 in
  match try_bolt b.exe other.prof with
  | Rejected m -> Alcotest.fail ("foreign profile rejected: " ^ m)
  | Rewritten (out, report) ->
      Alcotest.check behaviour_t "foreign-profile behaviour preserved"
        (classify b.exe ~input:b.input)
        (classify out ~input:b.input);
      ignore report

(* ---- family 6: drifted revisions through the fingerprint matcher ---- *)

module Fp = Bolt_obj.Fingerprint

(* Mark a profile as collected on [exe]: build-id mismatch against the
   optimization target is what arms the stale matcher. *)
let stamp_header build_id (p : Fdata.t) =
  { p with Fdata.header = Some { Fdata.no_header with Fdata.hd_build_id = build_id } }

(* The same service "one commit earlier": bodies edited, some symbols
   renamed, some helpers that the current revision deleted.  Its profile
   — fingerprints and all — must drive the current binary through
   recovery without a crash, and the rewrite must preserve behaviour. *)
let drifted_case i () =
  let b = Lazy.force base_rel in
  let rng = mk_rng (5000 + i) in
  let old_params =
    {
      (small_params 3) with
      Gen.body_pad = 1 + rng 3;
      rename_every = 4 + rng 5;
      extra_funcs = rng 4;
    }
  in
  let w = Gen.gen old_params in
  let cc = { Bolt_minic.Driver.default_options with emit_relocs = true } in
  let r =
    Bolt_minic.Driver.compile ~options:cc ~externals:w.Gen.externals
      ~extra_objs:w.Gen.extra_objs w.Gen.sources
  in
  let sampling =
    { Machine.event = Machine.Ev_cycles; period = 251; lbr = true; precise = true }
  in
  let o = Machine.run ~sampling r.exe ~input:w.Gen.input in
  let prof =
    match o.Machine.profile with
    | Some raw -> Bolt_profile.Perf2bolt.convert r.exe raw
    | None -> Fdata.empty
  in
  let prof = stamp_header r.exe.Objfile.build_id prof in
  match try_bolt b.exe prof with
  | Rejected m -> Alcotest.fail ("intact binary rejected drifted profile: " ^ m)
  | Rewritten (out, _) ->
      Alcotest.check behaviour_t
        (Printf.sprintf "drift-%d behaviour preserved" i)
        (classify b.exe ~input:b.input)
        (classify out ~input:b.input)

(* Garbage fingerprint tables: random hashes, torn block lists,
   out-of-range offsets, colliding names.  Whatever the matcher makes of
   them, the intact target binary must come out behaving the same. *)
let mangled_fp_case i () =
  let b = Lazy.force base_rel in
  let rng = mk_rng (6000 + i) in
  let mangle_block (bk : Fp.block) =
    match rng 5 with
    | 0 -> { bk with Fp.bk_off = bk.Fp.bk_off - 1 - rng 64 }
    | 1 -> { bk with Fp.bk_size = rng 2 * 1_000_000 }
    | 2 -> { bk with Fp.bk_opcode_hash = rng 1000 }
    | 3 -> { bk with Fp.bk_shape_hash = rng 1000 }
    | _ -> bk
  in
  let mangle_fn (f : Fp.func) =
    match rng 7 with
    | 0 -> { f with Fp.fp_func = Printf.sprintf "zz%d" (rng 4) }
    | 1 -> { f with Fp.fp_blocks = [] }
    | 2 ->
        let keep = rng (1 + List.length f.Fp.fp_blocks) in
        { f with Fp.fp_blocks = List.filteri (fun j _ -> j < keep) f.Fp.fp_blocks }
    | 3 ->
        {
          f with
          Fp.fp_opcode_hash = rng 1000;
          fp_cfg_hash = rng 1000;
        }
    | 4 -> { f with Fp.fp_blocks = f.Fp.fp_blocks @ f.Fp.fp_blocks }
    | 5 -> { f with Fp.fp_calls = [ String.make 300 'q' ] }
    | _ -> { f with Fp.fp_blocks = List.map mangle_block f.Fp.fp_blocks }
  in
  let prof =
    stamp_header "drifted-build-gone"
      { b.prof with Fdata.fingerprints = List.map mangle_fn b.prof.Fdata.fingerprints }
  in
  match try_bolt b.exe prof with
  | Rejected m -> Alcotest.fail ("intact binary rejected mangled fingerprints: " ^ m)
  | Rewritten (out, _) ->
      Alcotest.check behaviour_t
        (Printf.sprintf "mangled-fp-%d behaviour preserved" i)
        (classify b.exe ~input:b.input)
        (classify out ~input:b.input)

(* ---- quarantine mechanism unit tests ---- *)

let quarantine_demote_preserves () =
  (* demote a few hot functions by hand: the output must still behave
     identically (their original bytes are emitted verbatim) *)
  let b = Lazy.force base_rel in
  let opts = Bolt_core.Opts.default in
  let ctx = Test_bolt_core.build_ctx ~opts b.exe in
  let victims =
    match Bolt_core.Context.simple_funcs ctx with
    | a :: _ :: c :: _ -> [ a; c ]
    | l -> l
  in
  List.iter
    (fun fb ->
      Bolt_core.Quarantine.demote ctx ~stage:"test" fb "injected failure";
      Alcotest.(check bool)
        (fb.Bolt_core.Bfunc.fb_name ^ " demoted")
        false fb.Bolt_core.Bfunc.simple)
    victims;
  Alcotest.(check int)
    "quarantine count" (List.length victims)
    (Bolt_core.Diag.quarantined_count ctx.Bolt_core.Context.diag)

let quarantine_limit_enforced () =
  let b = Lazy.force base_rel in
  let opts = { Bolt_core.Opts.default with max_quarantine = Some 0 } in
  let ctx = Test_bolt_core.build_ctx ~opts b.exe in
  match Bolt_core.Context.simple_funcs ctx with
  | [] -> Alcotest.fail "no simple functions in base workload"
  | fb :: _ -> (
      match Bolt_core.Quarantine.demote ctx ~stage:"test" fb "injected" with
      | () -> Alcotest.fail "limit of 0 did not trip"
      | exception Bolt_core.Diag.Quarantine_limit n ->
          Alcotest.(check int) "limit count" 1 n)

let strict_turns_demotion_fatal () =
  let b = Lazy.force base_rel in
  let opts = { Bolt_core.Opts.default with strict = true } in
  let ctx = Test_bolt_core.build_ctx ~opts b.exe in
  match Bolt_core.Context.simple_funcs ctx with
  | [] -> Alcotest.fail "no simple functions in base workload"
  | fb :: _ -> (
      match Bolt_core.Quarantine.demote ctx ~stage:"test" fb "injected" with
      | () -> Alcotest.fail "strict did not raise"
      | exception Bolt_core.Diag.Strict_error _ -> ())

(* dyno-stats takes its layout rows from layout-eval's evaluation of the
   same state.  When that evaluation fails, dyno-stats is skipped too:
   every row zero, with its own diagnostic, never real instruction and
   branch counts beside zero layout rows. *)
let layout_eval_failure_skips_dyno () =
  let b = Lazy.force base_rel in
  let module B = Bolt_core in
  let ctx = B.Context.create ~opts:B.Opts.default b.exe in
  let env = B.Passman.make_env ctx b.prof in
  B.Passman.run env B.Passman.pre_passes;
  let rows, dyno = B.Bolt.eval_state env "-before" in
  Alcotest.(check bool) "layout rows" true (rows <> []);
  Alcotest.(check bool)
    "executed instructions" true
    (dyno.B.Dyno_stats.executed_instructions > 0);
  (* a profiled function whose layout names a block it does not have
     (an id past its block table) fails the layout evaluation *)
  (match List.filter B.Bfunc.has_profile (B.Context.simple_funcs ctx) with
  | [] -> Alcotest.fail "no profiled function in base workload"
  | fb :: _ ->
      fb.B.Bfunc.layout <-
        Array.append fb.B.Bfunc.layout [| Array.length fb.B.Bfunc.blocks |]);
  let rows, dyno = B.Bolt.eval_state env "-after" in
  Alcotest.(check int) "no layout rows" 0 (List.length rows);
  Alcotest.(check (list (pair string int)))
    "dyno-stats zero as a whole"
    (B.Dyno_stats.rows (B.Dyno_stats.zero ()))
    (B.Dyno_stats.rows dyno);
  let errors stage =
    List.filter
      (fun (r : B.Diag.record) -> r.d_severity = B.Diag.Error && r.d_stage = stage)
      (B.Diag.records ctx.B.Context.diag)
  in
  Alcotest.(check int) "layout-eval error" 1 (List.length (errors "layout-eval"));
  match errors "dyno-stats" with
  | [ r ] ->
      Alcotest.(check bool)
        ("dyno-stats skipped for the layout: " ^ r.d_msg)
        true
        (Test_monitor.contains r.d_msg "no layout evaluation")
  | l -> Alcotest.failf "%d dyno-stats errors" (List.length l)

(* An exception-table entry whose pad lies past its function's end (a
   malformed LSDA).  CFG construction gives the calls it covers the pad id
   -1, an id outside the block table: the function stays simple, and the
   rewrite drops that range and keeps the other. *)
let lsda_pad_outside () =
  let src =
    {| fn risky(x) { if (x % 97 == 13) { throw x; } return x * 2; }
       fn main() {
         var i = 0;
         var s = 0;
         while (i < 2000) {
           try { s = s + risky(i); } catch (e) { s = s - e; }
           try { s = s + risky(i + 1); } catch (e) { s = s + e; }
           i = i + 1;
         }
         out s;
         return 0;
       } |}
  in
  let exe = Test_bolt_core.compile [ ("m", src) ] in
  let prof = Test_bolt_core.profile_of exe ~input:[||] in
  let size =
    (Option.get (Objfile.find_symbol exe "main")).Types.sym_size
  in
  let bad =
    {
      exe with
      Objfile.lsdas =
        List.map
          (fun (l : Types.lsda) ->
            if l.lsda_func <> "main" then l
            else
              match l.lsda_entries with
              | e :: rest ->
                  { l with lsda_entries = { e with Types.lsda_pad = size + 64 } :: rest }
              | [] -> Alcotest.fail "main has no exception table entries")
          exe.Objfile.lsdas;
    }
  in
  let ctx = Test_bolt_core.build_ctx bad in
  let fb = Option.get (Bolt_core.Context.func ctx "main") in
  Alcotest.(check bool) "main stays simple" true fb.Bolt_core.Bfunc.simple;
  Alcotest.(check bool) "a call covered by pad -1" true
    (Array.exists
       (fun (b : Bolt_core.Bfunc.bb) ->
         List.exists (fun (i : Bolt_core.Bfunc.minsn) -> i.lp = Some (-1)) b.insns)
       fb.blocks);
  let entries exe =
    let out, report = Bolt_core.Bolt.optimize exe prof in
    Alcotest.(check int) "no quarantine" 0 (List.length report.Bolt_core.Bolt.r_quarantined);
    List.concat_map
      (fun (l : Types.lsda) -> if l.lsda_func = "main" then l.lsda_entries else [])
      out.Objfile.lsdas
  in
  Alcotest.(check int) "good input: two ranges" 2 (List.length (entries exe));
  Alcotest.(check int) "the outside pad's range dropped" 1 (List.length (entries bad))

(* Two function symbols that share a name: [dbl] renamed [inc], with its
   relocations, line table and exception table.  The first [inc]'s frame
   descriptor is dropped and the second keeps the name [dbl], so no
   frame-info check trips.  Built at -O0: at -O2 minicc inlines both
   callees.  The input still runs as before, but every call resolves by
   name, so a rewrite would send both calls to one body: the verifier
   must reject it, in either relocation mode. *)
let duplicate_func_name emit_relocs () =
  let src =
    {| fn inc(x) { return x + 1; }
       fn dbl(x) { return x * 2; }
       fn main() {
         var i = 0;
         var s = 0;
         while (i < 300) { s = s + inc(i) + dbl(i); i = i + 1; }
         out s;
         return 0;
       } |}
  in
  let options = { Bolt_minic.Driver.default_options with opt_level = 0; emit_relocs } in
  let exe = Test_bolt_core.compile ~options [ ("m", src) ] in
  let first_inc = (Option.get (Objfile.find_symbol exe "inc")).Types.sym_value in
  let rename n = if n = "dbl" then "inc" else n in
  let bad =
    {
      exe with
      Objfile.symbols =
        List.map
          (fun (s : Types.symbol) -> { s with sym_name = rename s.sym_name })
          exe.Objfile.symbols;
      relocs =
        List.map (fun (r : Types.reloc) -> { r with rel_sym = rename r.rel_sym }) exe.relocs;
      dbgs = List.map (fun (d : Types.dbg) -> { d with dbg_func = rename d.dbg_func }) exe.dbgs;
      lsdas =
        List.map (fun (l : Types.lsda) -> { l with lsda_func = rename l.lsda_func }) exe.lsdas;
      fdes = List.filter (fun (f : Types.fde) -> f.fde_addr <> first_inc) exe.fdes;
    }
  in
  Alcotest.check behaviour_t "the renamed input runs as before"
    (classify exe ~input:[||]) (classify bad ~input:[||]);
  let prof = Test_bolt_core.profile_of bad ~input:[||] in
  match try_bolt bad prof with
  | Rejected m ->
      Alcotest.(check bool) ("rejected for the shared name: " ^ m) true
        (Test_monitor.contains m "function inc at both")
  | Rewritten (out, _) ->
      Alcotest.failf "a shared function name was rewritten; it now %a" behaviour_pp
        (classify out ~input:[||])

let clean_input_unaffected () =
  (* the hardening must not change what BOLT does to a healthy input:
     no quarantines, no fallback, behaviour preserved *)
  let b = Lazy.force base_rel in
  match try_bolt b.exe b.prof with
  | Rejected m -> Alcotest.fail ("clean input rejected: " ^ m)
  | Rewritten (out, report) ->
      Alcotest.(check int)
        "no quarantines" 0
        (List.length report.Bolt_core.Bolt.r_quarantined);
      Alcotest.(check bool)
        "no identity fallback" false report.Bolt_core.Bolt.r_identity_fallback;
      Alcotest.check behaviour_t "clean behaviour preserved"
        (classify b.exe ~input:b.input)
        (classify out ~input:b.input)

(* FUZZ_SEEDS (same spec as the fuzz suite: "3,7,100" or "1-32") adds a
   corruption round per seed, each with its own PRNG stream, so long runs
   need no rebuild.  Unset: one round. *)
let rounds =
  match Sys.getenv_opt "FUZZ_SEEDS" with
  | None | Some "" -> [ 0 ]
  | Some _ -> Test_fuzz.seeds_from_env ()

let corruption_cases round =
  let mix i = (round * 7919) + i in
  let tag name i =
    if round = 0 then Printf.sprintf "%s-%d" name i
    else Printf.sprintf "%s-r%d-%d" name round i
  in
  List.init 16 (fun i ->
      Alcotest.test_case (tag "flip" i) `Slow (flip_case (mix i)))
  @ (* truncation points depend only on the index, so extra rounds add
       nothing there *)
  (if round = 0 then
     List.init 10 (fun i ->
         Alcotest.test_case (Printf.sprintf "truncate-%d" i) `Slow
           (truncate_case i))
   else [])
  @ List.init 10 (fun i ->
        Alcotest.test_case (tag "text" i) `Slow (text_case (mix i)))
  @ List.init 14 (fun i ->
        Alcotest.test_case (tag "fdata" i) `Slow (fdata_case (mix i)))
  @ List.init 3 (fun i ->
        Alcotest.test_case (tag "drift" i) `Slow (drifted_case (mix i)))
  @ List.init 8 (fun i ->
        Alcotest.test_case (tag "mangled-fp" i) `Slow (mangled_fp_case (mix i)))

let suite =
  List.concat_map corruption_cases rounds
  @ [
      Alcotest.test_case "stale-shifted-offsets" `Slow stale_shifted;
      Alcotest.test_case "stale-wrong-binary" `Slow stale_wrong_binary;
      Alcotest.test_case "quarantine-demote-preserves" `Slow
        quarantine_demote_preserves;
      Alcotest.test_case "quarantine-limit-enforced" `Slow
        quarantine_limit_enforced;
      Alcotest.test_case "strict-demotion-fatal" `Slow strict_turns_demotion_fatal;
      Alcotest.test_case "clean-input-unaffected" `Slow clean_input_unaffected;
      Alcotest.test_case "lsda-pad-outside" `Slow lsda_pad_outside;
      Alcotest.test_case "duplicate-func-name-relocs" `Slow (duplicate_func_name true);
      Alcotest.test_case "duplicate-func-name-in-place" `Slow
        (duplicate_func_name false);
      Alcotest.test_case "layout-eval-failure-skips-dyno" `Slow
        layout_eval_failure_skips_dyno;
    ]
