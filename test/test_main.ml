(* The toolchain suites: ISA through rewriting, layout and the paper
   pipeline.  [test_fleet_main] runs the rest (see [Suites]), so
   runtest keeps both cores busy. *)
let () = Suites.run Suites.Main "obolt"
