(* Every test suite, in run order, and the executable that runs it.
   runtest runs the two executables side by side, about half the run
   time each: [Main] holds the toolchain suites, [Fleet] the fleet and
   service suites plus icf.

   Each executable registers every suite's name, with no tests under
   the other executable's suites: Alcotest sizes its name column, and
   so where it cuts a long test name, by the longest suite name
   registered.  That way every test prints the same line as it would in
   one executable running all the suites. *)

type exe = Main | Fleet

let all =
  [
    ("isa", Main, Test_isa.suite);
    ("obj", Main, Test_obj.suite);
    ("asm-link", Main, Test_asm_link.suite);
    ("sim", Main, Test_sim.suite);
    ("profile-hfsort", Main, Test_profile_hfsort.suite);
    ("minic-units", Main, Test_minic_units.suite);
    ("minic-e2e", Main, Test_minic.suite);
    ("obs", Main, Test_obs.suite);
    ("bolt-core", Main, Test_bolt_core.suite);
    ("icf", Fleet, Test_icf.suite);
    ("dataflow-emit", Main, Test_dataflow_emit.suite);
    ("cli-tools", Fleet, Test_cli_tools.suite);
    ("pipeline", Main, Test_pipeline.suite);
    ("fdata", Main, Test_fdata.suite);
    ("fault-injection", Main, Test_fault_injection.suite);
    ("parallel", Main, Test_parallel.suite);
    ("layout", Main, Test_layout.suite);
    ("fuzz", Main, Test_fuzz.suite);
    ("fleet", Fleet, Test_fleet.suite);
    ("stale", Main, Test_stale.suite);
    ("monitor", Fleet, Test_monitor.suite);
    ("service", Fleet, Test_service.suite);
    ("iocore", Main, Test_iocore.suite);
  ]

(* [title] names the run, and so its output directory under
   _build/_tests: the two executables must use different ones. *)
let run exe title =
  Alcotest.run title
    (List.map
       (fun (name, e, suite) -> (name, if e = exe then suite else []))
       all)
