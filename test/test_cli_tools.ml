(* The file-based tool flow, exactly as a user would drive it:

     minicc -> .x   bsim --record -> .bprf   perf2bolt -> .fdata
     obolt -> bolted .x   bsim again, same output, fewer cycles

   These tests exercise the same code the bin/ executables wrap, through
   the on-disk formats (BELF files, raw-sample files, fdata files). *)

module Machine = Bolt_sim.Machine

let in_temp name = Filename.concat (Filename.get_temp_dir_name ()) name

let src =
  {| global acc = 0;
     fn crunch(x) {
       if (x % 16 >= 2) { acc = acc + 1; } else { acc = acc + x * 3; }
       return acc;
     }
     fn main() {
       var i = 0;
       while (i < 8000) { acc = crunch(i); i = i + 1; }
       out acc;
       return 0;
     } |}

let test_file_flow () =
  let exe_path = in_temp "t_prog.x" in
  let samples_path = in_temp "t_prog.bprf" in
  let fdata_path = in_temp "t_prog.fdata" in
  let bolted_path = in_temp "t_prog.bolt.x" in
  (* minicc *)
  let r = Bolt_minic.Driver.compile [ ("m", src) ] in
  Bolt_obj.Objfile.save exe_path r.exe;
  (* bsim --record *)
  let exe = Bolt_obj.Objfile.load exe_path in
  let sampling =
    { Machine.event = Machine.Ev_cycles; period = 301; lbr = true; precise = true }
  in
  let o1 = Machine.run ~sampling exe ~input:[||] in
  Bolt_profile.Samples.save samples_path (Option.get o1.Machine.profile);
  (* perf2bolt *)
  let raw = Bolt_profile.Samples.load samples_path in
  let fdata = Bolt_profile.Perf2bolt.convert exe raw in
  Bolt_profile.Fdata.save fdata_path fdata;
  (* obolt *)
  let exe = Bolt_obj.Objfile.load exe_path in
  let prof = Bolt_profile.Fdata.load fdata_path in
  let exe', _report = Bolt_core.Bolt.optimize exe prof in
  Bolt_obj.Objfile.save bolted_path exe';
  (* run both from disk *)
  let a = Machine.run (Bolt_obj.Objfile.load exe_path) ~input:[||] in
  let b = Machine.run (Bolt_obj.Objfile.load bolted_path) ~input:[||] in
  List.iter Sys.remove [ exe_path; samples_path; fdata_path; bolted_path ];
  Alcotest.(check (list int)) "same output through files" a.Machine.output b.Machine.output;
  Alcotest.(check bool) "bolted is faster" true
    (Machine.cycles b.Machine.counters < Machine.cycles a.Machine.counters)

let test_pgo_file_flow () =
  (* instrument -> run -> read the counters back -> rebuild with the profile *)
  let sources = [ ("m", src) ] in
  let cc = Bolt_minic.Driver.default_options in
  let prof = Bolt_pipeline.Pipeline.pgo_profile ~cc sources ~input:[||] in
  let r2 =
    Bolt_minic.Driver.compile
      ~options:{ cc with pgo = Bolt_minic.Driver.Apply prof }
      sources
  in
  let a = Machine.run r2.exe ~input:[||] in
  let plain = Bolt_minic.Driver.compile sources in
  let b = Machine.run plain.exe ~input:[||] in
  Alcotest.(check (list int)) "pgo build same output" b.Machine.output a.Machine.output;
  (* the hot-in-then branch must have been flipped by the profile *)
  Alcotest.(check bool) "pgo reduces taken conditionals" true
    (a.Machine.counters.Machine.cond_taken < b.Machine.counters.Machine.cond_taken)

(* optimizing twice must be stable: same behaviour, no blow-up *)
let test_bolt_idempotent_behaviour () =
  let r = Bolt_minic.Driver.compile [ ("m", src) ] in
  let sampling =
    { Machine.event = Machine.Ev_cycles; period = 301; lbr = true; precise = true }
  in
  let o = Machine.run ~sampling r.exe ~input:[||] in
  let prof = Bolt_profile.Perf2bolt.convert r.exe (Option.get o.Machine.profile) in
  let exe1, _ = Bolt_core.Bolt.optimize r.exe prof in
  (* re-profile the bolted binary and bolt again *)
  let o1 = Machine.run ~sampling exe1 ~input:[||] in
  let prof1 = Bolt_profile.Perf2bolt.convert exe1 (Option.get o1.Machine.profile) in
  let exe2, _ = Bolt_core.Bolt.optimize exe1 prof1 in
  let a = Machine.run exe1 ~input:[||] in
  let b = Machine.run ~fuel:200_000_000 exe2 ~input:[||] in
  Alcotest.(check (list int)) "double-bolt same output" a.Machine.output b.Machine.output;
  (* the second pass must not find much left to do *)
  let c1 = Machine.cycles a.Machine.counters and c2 = Machine.cycles b.Machine.counters in
  Alcotest.(check bool) "second pass roughly neutral" true
    (float_of_int (abs (c2 - c1)) /. float_of_int c1 < 0.10)

let suite =
  [
    Alcotest.test_case "file-flow" `Quick test_file_flow;
    Alcotest.test_case "pgo-file-flow" `Quick test_pgo_file_flow;
    Alcotest.test_case "bolt-rebolt" `Quick test_bolt_idempotent_behaviour;
  ]
