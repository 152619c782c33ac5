(* Lower-level bolt_core tests: liveness dataflow, heat-map construction,
   dyno-stats accounting, and emission/relaxation invariants checked by
   disassembling a rewritten binary. *)

open Bolt_minic
module Machine = Bolt_sim.Machine

let compile ?(options = Driver.default_options) srcs =
  (Driver.compile ~options srcs).Driver.exe

let build_ctx = Test_bolt_core.build_ctx

let test_liveness_callee_saved () =
  (* a framed function that uses r8 must report r8 as referenced *)
  let exe =
    compile
      [
        ( "m",
          {| fn busy(a, b) {
               var x = a * 2;
               var y = b * 3;
               var z = x + y;
               var w = z * z;
               var v = w + x;
               var u = v + y;
               return u + busy2(z, w);
             }
             fn busy2(a, b) { return a + b; }
             fn main() { out busy(1, 2); return 0; } |} );
      ]
  in
  let ctx = build_ctx exe in
  let fb = Option.get (Bolt_core.Context.func ctx "busy") in
  (* it's a framed function (has calls): some callee-saved reg is used *)
  let used_any =
    List.exists
      (fun r -> Bolt_core.Dataflow.references_reg fb r)
      Bolt_isa.Reg.callee_saved
  in
  Alcotest.(check bool) "uses callee-saved regs" true used_any;
  (* liveness converges and entry block exists *)
  let live = Bolt_core.Dataflow.liveness fb in
  Alcotest.(check bool) "entry live-in computed" true
    (Hashtbl.mem live fb.Bolt_core.Bfunc.entry)

let test_heatmap_build_and_prefix () =
  let h = Hashtbl.create 16 in
  (* all heat in the first cells *)
  Hashtbl.replace h 0x400000 500;
  Hashtbl.replace h 0x400040 300;
  let t = Bolt_core.Heatmap.build ~rows:8 ~cols:8 ~base:0x400000 ~span:(64 * 64 * 8) h in
  Alcotest.(check bool) "prefix captures all" true
    (Bolt_core.Heatmap.heat_in_prefix t 0.25 > 0.99);
  Alcotest.(check bool) "extent small" true (Bolt_core.Heatmap.hot_extent t <= 2 * t.Bolt_core.Heatmap.bucket);
  (* csv shape: rows lines, cols columns *)
  let csv = Bolt_core.Heatmap.to_csv t in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "csv rows" 8 (List.length lines)

(* Disassemble every function of a rewritten binary: all bytes must decode
   and all direct intra-function branch targets must land on instruction
   boundaries. *)
let check_decodable (exe : Bolt_obj.Objfile.t) =
  List.iter
    (fun (s : Bolt_obj.Types.symbol) ->
      if s.sym_kind = Bolt_obj.Types.Func && s.sym_size > 0 then begin
        let sec =
          List.find
            (fun (sec : Bolt_obj.Types.section) ->
              s.sym_value >= sec.sec_addr && s.sym_value < sec.sec_addr + sec.sec_size)
            exe.Bolt_obj.Objfile.sections
        in
        let starts = Hashtbl.create 64 in
        let pos = ref (s.sym_value - sec.sec_addr) in
        let stop = !pos + s.sym_size in
        (try
           while !pos < stop do
             Hashtbl.replace starts !pos ();
             let _, sz = Bolt_isa.Codec.decode sec.sec_data !pos in
             pos := !pos + sz
           done
         with Bolt_isa.Codec.Decode_error p ->
           Alcotest.failf "%s: decode error at %d" s.sym_name p);
        (* branch targets on boundaries *)
        let pos = ref (s.sym_value - sec.sec_addr) in
        while !pos < stop do
          let i, sz = Bolt_isa.Codec.decode sec.sec_data !pos in
          let next = !pos + sz in
          (match i with
          | Bolt_isa.Insn.Jmp (Bolt_isa.Insn.Imm rel, _)
          | Bolt_isa.Insn.Jcc (_, Bolt_isa.Insn.Imm rel, _) ->
              let t = next + rel in
              let fstart = s.sym_value - sec.sec_addr in
              if t >= fstart && t < stop then
                Alcotest.(check bool)
                  (Printf.sprintf "%s: target %d on boundary" s.sym_name t)
                  true (Hashtbl.mem starts t)
          | _ -> ());
          pos := next
        done
      end)
    exe.Bolt_obj.Objfile.symbols

let test_rewritten_binary_decodes () =
  let exe =
    compile
      [
        ( "m",
          {| fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
             fn pick(x) {
               switch (x % 6) {
                 case 0: { return 1; } case 1: { return 2; } case 2: { return 3; }
                 case 3: { return 4; } case 4: { return 5; } default: { return 0; }
               }
             }
             fn main() {
               var i = 0;
               var s = 0;
               while (i < 300) { s = s + fib(i % 10) + pick(i); i = i + 1; }
               out s;
               return 0;
             } |} );
      ]
  in
  let sampling =
    { Machine.event = Machine.Ev_cycles; period = 211; lbr = true; precise = true }
  in
  let o = Machine.run ~sampling exe ~input:[||] in
  let prof = Bolt_profile.Perf2bolt.convert exe (Option.get o.Machine.profile) in
  let exe', _ = Bolt_core.Bolt.optimize exe prof in
  check_decodable exe'

let test_dyno_stats_zero_on_empty_profile () =
  let exe = compile [ ("m", {| fn main() { out 1; return 0; } |}) ] in
  let ctx = build_ctx exe in
  let st = Bolt_core.Dyno_stats.collect ctx in
  Alcotest.(check int) "no weighted insns" 0 st.Bolt_core.Dyno_stats.executed_instructions

let test_report_bad_layout_detects () =
  (* construct a function whose ORIGINAL layout has a never-executed block
     between two hot ones: classic cold-in-the-middle *)
  let exe =
    compile
      [
        ( "m",
          {| global acc = 0;
             fn work(x) {
               if (x % 1000 == 999) { acc = acc + x * 31; acc = acc * 2; acc = acc - x; }
               else { acc = acc + 1; }
               return acc;
             }
             fn main() { var i = 0; while (i < 400) { acc = work(i); i = i + 1; } out acc; return 0; } |}
        );
      ]
  in
  let sampling =
    { Machine.event = Machine.Ev_cycles; period = 101; lbr = true; precise = true }
  in
  let o = Machine.run ~sampling exe ~input:[||] in
  let prof = Bolt_profile.Perf2bolt.convert exe (Option.get o.Machine.profile) in
  let ctx = build_ctx exe in
  ignore (Bolt_core.Match_profile.attach ctx prof);
  Bolt_core.Match_profile.finalize ctx ~lbr:true ~trust_fallthrough:true;
  let findings = Bolt_core.Report.bad_layout ctx ~top:10 in
  Alcotest.(check bool) "found at least one" true (List.length findings >= 1)

let test_sctc_straightens_jump_chains () =
  let exe =
    compile
      ~options:{ Driver.default_options with opt_level = 1 }
      [
        ( "m",
          {| fn main() {
               var i = 0;
               var s = 0;
               while (i < 100) {
                 if (i % 2 == 0) { s = s + 1; } else { s = s + 2; }
                 i = i + 1;
               }
               out s;
               return 0;
             } |} );
      ]
  in
  let ctx = build_ctx exe in
  (* run sctc; it must not break the CFG *)
  Test_bolt_core.run_passes ctx [ "sctc"; "uce" ];
  let logged key fmt =
    let n = Bolt_obs.Metrics.counter ctx.Bolt_core.Context.stats key in
    Test_bolt_core.check_logged ctx ~key n (Printf.sprintf fmt n)
  in
  logged "pass.sctc.simplified" "sctc: %d branches simplified";
  logged "pass.uce.blocks_removed" "uce: %d unreachable blocks removed";
  let fb = Option.get (Bolt_core.Context.func ctx "main") in
  Alcotest.(check bool) "entry survives" true
    (Hashtbl.mem fb.Bolt_core.Bfunc.blocks fb.Bolt_core.Bfunc.entry)

let suite =
  [
    Alcotest.test_case "liveness" `Quick test_liveness_callee_saved;
    Alcotest.test_case "heatmap-build" `Quick test_heatmap_build_and_prefix;
    Alcotest.test_case "rewritten-decodes" `Quick test_rewritten_binary_decodes;
    Alcotest.test_case "dyno-empty" `Quick test_dyno_stats_zero_on_empty_profile;
    Alcotest.test_case "report-bad-layout" `Quick test_report_bad_layout_detects;
    Alcotest.test_case "sctc-safe" `Quick test_sctc_straightens_jump_chains;
  ]
