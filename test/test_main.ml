let () =
  Alcotest.run "obolt"
    [
      ("isa", Test_isa.suite);
      ("obj", Test_obj.suite);
      ("asm-link", Test_asm_link.suite);
      ("sim", Test_sim.suite);
      ("profile-hfsort", Test_profile_hfsort.suite);
      ("minic-units", Test_minic_units.suite);
      ("minic-e2e", Test_minic.suite);
      ("obs", Test_obs.suite);
      ("bolt-core", Test_bolt_core.suite);
      ("icf", Test_icf.suite);
      ("dataflow-emit", Test_dataflow_emit.suite);
      ("cli-tools", Test_cli_tools.suite);
      ("pipeline", Test_pipeline.suite);
      ("fdata", Test_fdata.suite);
      ("fault-injection", Test_fault_injection.suite);
      ("parallel", Test_parallel.suite);
      ("layout", Test_layout.suite);
      ("fuzz", Test_fuzz.suite);
      ("fleet", Test_fleet.suite);
      ("stale", Test_stale.suite);
      ("monitor", Test_monitor.suite);
      ("service", Test_service.suite);
      ("iocore", Test_iocore.suite);
    ]
