(* Lower-level bolt_core tests: register references, heat-map construction,
   dyno-stats accounting, emission/relaxation invariants checked by
   disassembling a rewritten binary, and CFG construction and emission
   against [Oracle.Build] and [Oracle.Emit]. *)

open Bolt_minic
module Machine = Bolt_sim.Machine

let compile ?(options = Driver.default_options) srcs =
  (Driver.compile ~options srcs).Driver.exe

let build_ctx = Test_bolt_core.build_ctx

let test_references_callee_saved () =
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
  Alcotest.(check bool) "uses callee-saved regs" true used_any

let test_heatmap_build_and_prefix () =
  let h = Hashtbl.create 16 in
  (* all heat in the first cells *)
  Hashtbl.replace h 0x400000 500;
  Hashtbl.replace h 0x400040 300;
  let t = Bolt_core.Heatmap.build ~rows:8 ~cols:8 ~base:0x400000 ~span:(64 * 64 * 8) h in
  Alcotest.(check bool) "prefix captures all" true
    (Bolt_core.Heatmap.heat_in_prefix t 0.25 > 0.99);
  Alcotest.(check bool) "extent small" true (Bolt_core.Heatmap.hot_extent t <= 2 * t.Bolt_core.Heatmap.bucket)

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
  let st = Bolt_core.Dyno_stats.collect ctx (Bolt_core.Layout_bbs.snapshot ctx) in
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
  Alcotest.(check bool) "entry survives" true (Array.mem 0 fb.Bolt_core.Bfunc.layout)

(* ---- CFG construction and emission against the oracles ---- *)

module Bfunc = Bolt_core.Bfunc
module Emit = Bolt_core.Emit
module Types = Bolt_obj.Types

let catch f = match f () with r -> Ok r | exception e -> Error (Printexc.to_string e)

(* A context for visitors that take one but read nothing from it. *)
let dummy_ctx = lazy (Test_profile_hfsort.context_of [])

(* Random CFGs for the emitter: up to seven blocks in a shuffled layout
   with a random cold set, so fragments split and terminators flip
   polarity or gain jumps; blocks of up to a dozen instructions (nops
   of 15 bytes among them, so branches widen), carrying landing pads
   inside and outside the function (an out-of-range id), source lines
   and CFI ops; and
   entry frame states whose saved-register lists differ only in order. *)
let gen_cfg =
  let open QCheck.Gen in
  let r3 = Bolt_isa.Reg.r3 and r4 = Bolt_isa.Reg.r4 in
  let* nb = int_range 1 7 in
  let lab = int_bound (nb - 1) in
  let state =
    let+ est = bool
    and+ locals = oneofl [ 0; 16 ]
    and+ saved = oneofl [ []; [ (r3, 8) ]; [ (r3, 8); (r4, 16) ]; [ (r4, 16); (r3, 8) ] ] in
    { Types.cfa_established = est; cfa_locals = locals; cfa_saved = saved }
  in
  let op =
    frequency
      [
        (2, return Types.Cfi_establish);
        (2, return (Types.Cfi_def_locals 16));
        (2, return (Types.Cfi_save (r4, 16)));
        (1, return (Types.Cfi_restore r3));
        (1, return Types.Cfi_teardown);
        (1, map (fun s -> Types.Cfi_set_state s) state);
      ]
  in
  let insn =
    let+ op =
      oneofl
        Bolt_isa.Insn.
          [
            Nop 15; Nop 15; Nop 3; Mov_rr (r3, r4); Alu_ri (Add, r3, Imm 1);
            Load_abs (r4, Sym ("glob", 0)); Call (Sym ("callee", 0)); Lea (r3, Sym ("fnptr", 0));
            Call_ind r3; Throw;
          ]
    and+ lp = opt ~ratio:0.3 (frequency [ (6, lab); (1, return (-1)) ])
    and+ loc =
      (* shared values, as a build's consecutive instructions share them *)
      oneofl [ None; None; Some ("a.mc", 1); Some ("a.mc", 2); Some ("b.mc", 1) ]
    and+ cfi = frequency [ (5, return []); (1, list_size (int_range 1 2) op) ] in
    Bfunc.mk ~lp ~loc ~cfi op
  in
  let term =
    frequency
      [
        (3, map (fun l -> Bfunc.T_jump l) lab);
        (4, map3 (fun c a b -> Bfunc.T_cond (c, a, b)) (oneofl [ Bolt_isa.Cond.Eq; Lt ]) lab lab);
        (1, map (fun l -> Bfunc.T_condtail (Bolt_isa.Cond.Ne, "tailfn", l)) lab);
        (1, return (Bfunc.T_indirect None));
        (1, return Bfunc.T_stop);
      ]
  in
  let* blocks = list_repeat nb (triple (list_size (int_range 0 12) insn) term state) in
  let* layout = shuffle_l (List.init nb Fun.id) in
  let+ cold = list_repeat nb (frequency [ (3, return false); (1, return true) ]) in
  let fb = Bfunc.create ~name:"f" ~addr:0x1000 ~size:(10 * nb) in
  fb.blocks <-
    Array.of_list
      (List.mapi
         (fun k ((insns, term, cfi_entry), cold) ->
           { (Bfunc.new_block ~off:(10 * k) ~cfi_entry (Printf.sprintf ".LBB%d" (10 * k)) insns
                term)
             with cold })
         (List.combine blocks cold));
  fb.layout <- Array.of_list layout;
  fb

let prop_emit =
  QCheck.Test.make ~name:"emit_simple == list-building oracle (random CFGs)" ~count:500
    (QCheck.make
       ~print:(fun fb ->
         Fmt.str "%acold: %s@." Bfunc.pp fb
           (String.concat " " (List.map (Bfunc.name fb) (Bfunc.cold_layout fb))))
       gen_cfg)
    (fun fb -> catch (fun () -> Emit.emit_simple fb) = catch (fun () -> Oracle.Emit.emit_simple fb))

(* ---- the block-id invariants ---- *)

(* [fb] with random profiled out-edges (self-edges, zero counts and
   edges into block 0 among them) and a layout that keeps a random
   subsequence of the blocks, as after UCE. *)
let with_edges_and_live gen =
  let open QCheck.Gen in
  let* fb = gen in
  let n = Array.length fb.Bfunc.blocks in
  let* edges =
    list_size (int_range 0 (3 * n))
      (triple (int_bound (n - 1)) (int_bound (n - 1))
         (frequency [ (1, return 0); (6, int_range 1 100) ]))
  and* keep =
    list_repeat (Array.length fb.layout) (frequency [ (4, return true); (1, return false) ])
  in
  List.iter (fun (s, d, c) -> Bfunc.add_edge_count fb.blocks.(s) d c 0) edges;
  fb.layout <-
    Array.of_list (List.filteri (fun i _ -> List.nth keep i) (Array.to_list fb.layout));
  let+ cold = list_repeat n bool and+ entered = int_bound 3 in
  if fb.exec_count = 0 then fb.exec_count <- entered;
  (fb, Array.of_list cold)

(* Functions of the profile-hfsort generator, with a random profile
   attached and finalized. *)
let gen_profiled =
  let open QCheck.Gen in
  let* fns = list_size (int_range 1 3) Test_profile_hfsort.gen_fn in
  let+ prof = Test_profile_hfsort.gen_profile (List.length fns) in
  let ctx = Test_profile_hfsort.context_of fns in
  ignore (Bolt_core.Match_profile.attach ctx prof);
  (try Bolt_core.Match_profile.finalize ctx ~lbr:prof.Bolt_profile.Fdata.lbr ~trust_fallthrough:true
   with _ -> ());
  Bolt_core.Context.simple_funcs ctx

(* The reference projection: a label -> layout position table over the
   blocks' names, and every block's edges looked up through it. *)
let label_projection ?(cold = fun _ -> false) (fb : Bfunc.t) =
  let index = Hashtbl.create 16 in
  Array.iteri (fun i l -> Hashtbl.replace index fb.blocks.(l).Bfunc.bl i) fb.layout;
  let find (b : Bfunc.bb) = Option.value ~default:(-1) (Hashtbl.find_opt index b.bl) in
  let nodes =
    Array.map
      (fun l ->
        let b = fb.blocks.(l) in
        { Bolt_layout.Cfg.n_label = b.bl; n_size = Bfunc.block_size b; n_count = b.ecount })
      fb.layout
  in
  let sunk = Array.map cold fb.layout in
  let edges =
    Array.fold_left
      (fun acc (b : Bfunc.bb) ->
        List.fold_left
          (fun acc (e : Bfunc.edge) ->
            let si = find b and di = find fb.blocks.(e.dst) in
            if si >= 0 && di >= 0 && (not sunk.(si)) && not sunk.(di) then (si, di, e.count) :: acc
            else acc)
          acc b.out)
      [] fb.blocks
  in
  let entry = if Array.length fb.blocks > 0 then find fb.blocks.(0) else -1 in
  Bolt_layout.Cfg.make ~nodes ~entry edges

(* Without a predicate, with a random one, and with the split rule's. *)
let projections_agree ((fb : Bfunc.t), cold) =
  let module L = Bolt_core.Layout_bbs in
  let split_all = { Bolt_core.Opts.default with split_functions = Bolt_core.Opts.Split_all } in
  L.cfg_of_fn fb = label_projection fb
  && L.cfg_of_fn ~cold:(Array.get cold) fb = label_projection ~cold:(Array.get cold) fb
  &&
  match L.sunk_blocks split_all fb with
  | None -> true
  | Some sunk -> L.cfg_of_fn ~cold:sunk fb = label_projection ~cold:sunk fb

let prop_projection =
  let gen =
    QCheck.Gen.(
      pair (with_edges_and_live gen_cfg)
        (gen_profiled >>= fun fbs ->
         flatten_l (List.map (fun fb -> with_edges_and_live (return fb)) fbs)))
  in
  QCheck.Test.make ~name:"cfg_of_fn == label-keyed projection (random CFGs)" ~count:500
    (QCheck.make ~print:(fun ((fb, _), _) -> Fmt.str "%a" Bfunc.pp fb) gen)
    (fun (a, bs) -> projections_agree a && List.for_all projections_agree bs)

(* The blocks block 0 reaches through terminators, jump tables and
   landing pads: a fixpoint over the whole table. *)
let reachable (fb : Bfunc.t) =
  let n = Array.length fb.blocks in
  let r = Array.make n false in
  if n > 0 then r.(0) <- true;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i (b : Bfunc.bb) ->
        if r.(i) then
          List.iter
            (fun t ->
              if t >= 0 && t < n && not r.(t) then begin
                r.(t) <- true;
                changed := true
              end)
            ((match b.term with
             | Bfunc.T_jump t -> [ t ]
             | T_cond (_, a, c) -> [ a; c ]
             | T_condtail (_, _, f) -> [ f ]
             | T_indirect (Some k) -> Array.to_list fb.jts.(k).jt_targets
             | T_indirect None | T_stop -> [])
            @ List.filter_map (fun (i : Bfunc.minsn) -> i.lp) b.insns))
      fb.blocks
  done;
  r

(* gen_cfg with a jump table behind its indirect jumps. *)
let gen_cfg_jt =
  let open QCheck.Gen in
  let* fb = gen_cfg in
  let n = Array.length fb.Bfunc.blocks in
  let+ targets = list_size (int_range 1 4) (int_bound (n - 1)) in
  fb.jts <-
    [| { Bfunc.jt_addr = 0x2000; jt_pic = false; jt_targets = Array.of_list targets;
         jt_offsets = Array.of_list (List.map (fun t -> 10 * t) targets) } |];
  Array.iter
    (fun (b : Bfunc.bb) -> if b.term = Bfunc.T_indirect None then b.term <- T_indirect (Some 0))
    fb.blocks;
  fb

let prop_uce =
  QCheck.Test.make ~name:"uce keeps exactly the reachable blocks (random CFGs)" ~count:500
    (QCheck.make
       ~print:(fun (fb, _) -> Fmt.str "%a" Bfunc.pp fb)
       QCheck.Gen.(
         let* fb = gen_cfg_jt in
         let n = Array.length fb.Bfunc.blocks in
         let+ edges =
           list_size (int_range 0 3)
             (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_range 0 5))
         in
         List.iter (fun (s, d, c) -> Bfunc.add_edge_count fb.blocks.(s) d c 0) edges;
         (fb, Array.copy fb.layout)))
    (fun (fb, before) ->
      let had = Bfunc.has_profile fb in
      let r = reachable fb in
      Bolt_core.Passes_simple.uce_fn (Lazy.force dummy_ctx) (Bolt_core.Context.new_shard ()) fb;
      fb.layout = Array.of_list (List.filter (fun l -> r.(l)) (Array.to_list before))
      && List.sort_uniq compare (Array.to_list fb.layout)
         = List.filter (fun l -> r.(l)) (List.init (Array.length r) Fun.id)
      && Bfunc.has_profile fb = had)

(* sctc on a forwarder chain A -> B -> C -> D, where B and C are empty
   jumps: blocks are visited in layout order, so A is retargeted past B
   to C while C still forwards, then B past C to D. *)
let test_sctc_forwarder_chain () =
  let cfi_entry = Types.initial_cfi_state in
  let fb = Bfunc.create ~name:"chain" ~addr:0x1000 ~size:40 in
  let body = [ Bfunc.mk (Bolt_isa.Insn.Mov_rr (Bolt_isa.Reg.r3, Bolt_isa.Reg.r4)) ] in
  fb.blocks <-
    [|
      Bfunc.new_block ~off:0 ~cfi_entry ".LBB0" body (Bfunc.T_jump 1);
      Bfunc.new_block ~off:10 ~cfi_entry ".LBB10" [] (Bfunc.T_jump 2);
      Bfunc.new_block ~off:20 ~cfi_entry ".LBB20" [] (Bfunc.T_jump 3);
      Bfunc.new_block ~off:30 ~cfi_entry ".LBB30" body Bfunc.T_stop;
    |];
  fb.layout <- [| 0; 1; 2; 3 |];
  Array.iteri (fun i (b : Bfunc.bb) -> if i < 3 then Bfunc.add_edge_count b (i + 1) 5 0) fb.blocks;
  let sh = Bolt_core.Context.new_shard () in
  Bolt_core.Passes_simple.sctc_fn (Lazy.force dummy_ctx) sh fb;
  Alcotest.(check int) "simplified" 2
    (Bolt_obs.Metrics.counter sh.Bolt_core.Context.sh_stats "pass.sctc.simplified");
  Alcotest.(check (list string)) "terminators"
    [ "jump .LBB20"; "jump .LBB30"; "jump .LBB30"; "stop" ]
    (Array.to_list
       (Array.map (fun (b : Bfunc.bb) -> Fmt.str "%a" (Bfunc.pp_term fb) b.term) fb.blocks));
  Alcotest.(check (list (pair int int))) "A's edges" [ (2, 5); (1, 5) ]
    (List.map (fun (e : Bfunc.edge) -> (e.dst, e.count)) fb.blocks.(0).out)

(* Every function of a real binary: its CFG built from fresh state by
   [Build.build_function] and by [Oracle.Build.build_function] (labels,
   layout, instructions with their pads, lines and CFI, terminators,
   entry frame states, jump tables, the simple verdict and its reason),
   then, after the whole pipeline, each live function's fragments from
   [Emit] and from [Oracle.Emit].  Returns (simple, non-simple, jump
   tables, cold fragments), so callers can check the build exercised
   each path. *)
let check_against_oracles what exe prof =
  let opts = { Bolt_core.Opts.default with Bolt_core.Opts.jobs = 1 } in
  let ctx = Bolt_core.Context.create ~opts exe in
  Bolt_core.Build.discover ctx;
  let simple = ref 0 and non_simple = ref 0 and jts = ref 0 and cold = ref 0 in
  List.iter
    (fun (fb : Bfunc.t) ->
      let fresh () = Bfunc.create ~name:fb.fb_name ~addr:fb.fb_addr ~size:fb.fb_size in
      let a = fresh () and b = fresh () in
      Bolt_core.Build.build_function ctx a;
      Oracle.Build.build_function ctx b;
      if a <> b then Alcotest.failf "%s: CFG of %s differs from the oracle's" what fb.fb_name;
      if a.simple then incr simple else incr non_simple;
      jts := !jts + Array.length a.jts)
    (Bolt_core.Context.all_funcs ctx);
  let ctx = Bolt_core.Context.create ~opts exe in
  let env = Bolt_core.Passman.make_env ctx prof in
  Bolt_core.Passman.run env Bolt_core.Passman.pre_passes;
  Bolt_core.Passman.run env Bolt_core.Passman.table1;
  List.iter
    (fun (fb : Bfunc.t) ->
      if fb.folded_into <> None then ()
      else if fb.simple then begin
        let frags = Emit.emit_simple fb in
        if frags <> Oracle.Emit.emit_simple fb then
          Alcotest.failf "%s: fragments of %s differ from the oracle's" what fb.fb_name;
        cold := !cold + List.length frags - 1
      end
      else
        let body = List.map (fun (i : Bfunc.minsn) -> Bolt_asm.Asm.A_insn i.op) fb.raw_insns in
        let af =
          { Bolt_asm.Asm.af_name = fb.fb_name; af_global = true; af_align = 1;
            af_emit_fde = false; af_body = body }
        in
        if (Emit.emit_raw fb).fr_out <> Oracle.Asm.assemble_function ~base:0 af then
          Alcotest.failf "%s: verbatim %s differs from the oracle's" what fb.fb_name)
    (Bolt_core.Context.all_funcs ctx);
  (!simple, !non_simple, !jts, !cold)

let test_oracles_built () =
  let w = Bolt_workloads.Gen.gen Test_asm_link.small_hhvm in
  List.iter
    (fun lto ->
      let cc = { Driver.default_options with lto } in
      let r =
        Driver.compile ~options:cc ~externals:w.externals ~extra_objs:w.extra_objs w.sources
      in
      let prof, _ = Bolt_pipeline.Pipeline.profile { exe = r.exe; cc } ~input:w.input in
      let simple, non_simple, jts, cold =
        check_against_oracles (Printf.sprintf "hhvm_like, lto %b" lto) r.exe prof
      in
      Alcotest.(check bool)
        (Printf.sprintf "lto %b: simple, non-simple, jump tables, cold fragments" lto)
        true
        (simple > 0 && non_simple > 0 && jts > 0 && cold > 0))
    [ true; false ];
  let m = Bolt_workloads.Gen.gen_mega ~seed:5 ~funcs:400 ~fdata_lines:6000 () in
  let exe = Bolt_obj.Objfile.of_string m.mg_belf in
  let prof, _ = Bolt_profile.Fdata.parse m.mg_fdata in
  let simple, _, _, cold = check_against_oracles "gen_mega" exe prof in
  Alcotest.(check bool) "gen_mega: simple functions and cold fragments" true
    (simple > 0 && cold > 0)

let suite =
  [
    Alcotest.test_case "liveness" `Quick test_references_callee_saved;
    Alcotest.test_case "heatmap-build" `Quick test_heatmap_build_and_prefix;
    Alcotest.test_case "rewritten-decodes" `Quick test_rewritten_binary_decodes;
    Alcotest.test_case "dyno-empty" `Quick test_dyno_stats_zero_on_empty_profile;
    Alcotest.test_case "report-bad-layout" `Quick test_report_bad_layout_detects;
    Alcotest.test_case "sctc-safe" `Quick test_sctc_straightens_jump_chains;
    Alcotest.test_case "sctc-forwarder-chain" `Quick test_sctc_forwarder_chain;
    Alcotest.test_case "oracles-built" `Quick test_oracles_built;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 2019 |]) prop_emit;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 2019 |]) prop_projection;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 2019 |]) prop_uce;
  ]
