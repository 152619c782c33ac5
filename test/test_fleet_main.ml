(* The fleet and service suites (CLI tools, fleet merge, monitor,
   boltd), plus ICF to even out the two test executables' run times
   (see [Suites]). *)
let () = Suites.run Suites.Fleet "obolt-fleet"
