(* bsim: run a BELF executable under the simulator, optionally recording
   samples (the `perf record` analog).

     bsim prog.x
     bsim --record samples.bprf --event cycles --lbr prog.x
     bsim --counters --heatmap heat.csv prog.x
     bsim --input 1,2,3 prog.x                                  *)

open Cmdliner
module Machine = Bolt_sim.Machine
module Obs = Bolt_obs.Obs
module Json = Bolt_obs.Json

(* Export the performance counters into the metrics registry under the
   shared `sim.` namespace, so bsim manifests diff against each other
   and against obolt's dyno-stats predictions. *)
let record_counters obs (c : Machine.counters) =
  let pairs =
    [
      ("sim.instructions", c.Machine.instructions);
      ("sim.cycles", Machine.cycles c);
      ("sim.branches", c.Machine.branches);
      ("sim.cond_branches", c.Machine.cond_branches);
      ("sim.cond_taken", c.Machine.cond_taken);
      ("sim.taken_branches", c.Machine.taken_branches);
      ("sim.calls", c.Machine.calls);
      ("sim.branch_misses", c.Machine.branch_misses);
      ("sim.l1i_accesses", c.Machine.l1i_accesses);
      ("sim.l1i_misses", c.Machine.l1i_misses);
      ("sim.l1d_accesses", c.Machine.l1d_accesses);
      ("sim.l1d_misses", c.Machine.l1d_misses);
      ("sim.l2_misses", c.Machine.l2_misses);
      ("sim.llc_misses", c.Machine.llc_misses);
      ("sim.itlb_misses", c.Machine.itlb_misses);
      ("sim.dtlb_misses", c.Machine.dtlb_misses);
      ("sim.throws", c.Machine.throws);
    ]
  in
  List.iter (fun (k, v) -> Obs.incr obs ~by:v k) pairs

let run exe_path record event period lbr precise counters_flag heat_csv input_str
    trace_out history =
  let obs =
    Obs.create ~enabled:(trace_out <> None || history <> None) ~name:"bsim" ()
  in
  let exe = Obs.span obs "load-binary" (fun () -> Bolt_obj.Objfile.load exe_path) in
  let input =
    match input_str with
    | "" -> [||]
    | s -> String.split_on_char ',' s |> List.map int_of_string |> Array.of_list
  in
  let sampling =
    if record <> None then
      Some
        {
          Machine.event =
            (match event with
            | "cycles" -> Machine.Ev_cycles
            | "instructions" -> Machine.Ev_instructions
            | "taken-branches" -> Machine.Ev_taken_branches
            | e -> Fmt.failwith "unknown event %s" e);
          period;
          lbr;
          precise;
        }
    else None
  in
  let o =
    Obs.span obs "simulate" (fun () ->
        let o =
          Machine.run ?sampling
            ~heatmap:(heat_csv <> None || trace_out <> None)
            exe ~input
        in
        record_counters obs o.Machine.counters;
        (match o.Machine.profile with
        | Some p -> Obs.incr obs ~by:p.Machine.rp_samples "sim.samples"
        | None -> ());
        o)
  in
  List.iter (fun v -> Printf.printf "%d\n" v) o.Machine.output;
  if o.Machine.uncaught_exception then Fmt.epr "uncaught exception@.";
  (match (record, o.Machine.profile) with
  | Some path, Some p ->
      Bolt_profile.Samples.save path p;
      Fmt.epr "recorded %d samples to %s@." p.Machine.rp_samples path
  | _ -> ());
  (match heat_csv with
  | Some path ->
      (match o.Machine.heat with
      | Some h ->
          let oc = open_out path in
          Hashtbl.iter (fun addr c -> Printf.fprintf oc "%d,%d\n" addr c) h;
          close_out oc
      | None -> ())
  | None -> ());
  Bolt_obs.History.save_run ~ppf:Fmt.stderr ~tool:"bsim"
    ~argv:(Array.to_list Sys.argv)
    ~sections:
      ([
         ( "run",
           Json.Obj
             [
               ("exit_code", Json.Int o.Machine.exit_code);
               ("uncaught_exception", Json.Bool o.Machine.uncaught_exception);
             ] );
       ]
      @
      match (o.Machine.heat, Bolt_obj.Objfile.find_section exe ".text") with
      | Some heat, Some text ->
          let hm =
            Bolt_core.Heatmap.build ~base:text.Bolt_obj.Types.sec_addr
              ~span:text.Bolt_obj.Types.sec_size heat
          in
          [ ("heatmap", Bolt_core.Heatmap.summary_json hm) ]
      | _ -> [])
    ~workload:(Filename.basename exe_path)
    ~build_id:exe.Bolt_obj.Objfile.build_id ?trace_out ?history obs;
  if counters_flag then begin
    let c = o.Machine.counters in
    Fmt.epr "instructions      %d@." c.Machine.instructions;
    Fmt.epr "cycles            %d@." (Machine.cycles c);
    Fmt.epr "taken-branches    %d@." c.Machine.taken_branches;
    Fmt.epr "branch-misses     %d@." c.Machine.branch_misses;
    Fmt.epr "l1i-misses        %d@." c.Machine.l1i_misses;
    Fmt.epr "l1d-misses        %d@." c.Machine.l1d_misses;
    Fmt.epr "llc-misses        %d@." c.Machine.llc_misses;
    Fmt.epr "itlb-misses       %d@." c.Machine.itlb_misses;
    Fmt.epr "dtlb-misses       %d@." c.Machine.dtlb_misses;
    Fmt.epr "throws            %d@." c.Machine.throws
  end;
  o.Machine.exit_code land 0xff

let exe_path = Arg.(required & pos 0 (some file) None & info [] ~docv:"EXE")
let record = Arg.(value & opt (some string) None & info [ "record" ] ~doc:"Write raw samples here.")
let event = Arg.(value & opt string "cycles" & info [ "event" ] ~doc:"cycles|instructions|taken-branches")
let period = Arg.(value & opt int 4001 & info [ "period" ] ~doc:"Sampling period.")
let lbr = Arg.(value & opt bool true & info [ "lbr" ] ~doc:"Record last-branch records.")
let precise = Arg.(value & opt bool true & info [ "precise" ] ~doc:"PEBS-style precise IPs.")
let counters = Arg.(value & flag & info [ "counters" ] ~doc:"Print performance counters.")
let heat_csv = Arg.(value & opt (some string) None & info [ "heatmap" ] ~doc:"Write fetch heat CSV.")
let input = Arg.(value & opt string "" & info [ "input" ] ~doc:"Comma-separated input tape.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a JSON run manifest (spans, `sim.*` counter metrics, \
           heat-map summary) to $(docv).")

let history =
  Arg.(
    value
    & opt (some string) None
    & info [ "history" ] ~docv:"FILE"
        ~doc:
          "Append a compact run record (`sim.*` counters, wall times, \
           build-id) to the JSONL run-history store at $(docv); inspect the \
           trajectory with bstat.")

let cmd =
  Cmd.v
    (Cmd.info "bsim" ~doc:"BISA simulator with sampling profiler")
    Term.(
      const run $ exe_path $ record $ event $ period $ lbr $ precise $ counters
      $ heat_csv $ input $ trace_out $ history)

let () = exit (Cmd.eval' cmd)
