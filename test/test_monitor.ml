(* Longitudinal observability tests: the run-history store (append/load
   durability), the bstat comparison engine (manifest/record diff,
   rolling-baseline regression gate), and the fleet health monitor's
   per-host rollout view over simulated fleet_sim ticks.

   The acceptance checks of the subsystem live here: an injected 20%
   pass-time regression and a recovery-rate drop against a 3-run
   baseline must be detected and name the offending metric, two
   identical runs must diff clean, and the monitor must flag every
   stale host fleet_sim configures until the rollout converges. *)

module Json = Bolt_obs.Json
module Obs = Bolt_obs.Obs
module Manifest = Bolt_obs.Manifest
module History = Bolt_obs.History
module Compare = Bolt_obs.Compare
module Merge = Bolt_fleet.Merge
module Monitor = Bolt_fleet.Monitor
module Quality = Bolt_fleet.Quality
module FS = Bolt_fleet.Fleet_sim
module Gen = Bolt_workloads.Gen
module P = Bolt_pipeline.Pipeline

let in_temp name = Filename.concat (Filename.get_temp_dir_name ()) name
let fresh_temp name =
  let path = in_temp name in
  if Sys.file_exists path then Sys.remove path;
  path

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let fake_clock () =
  let t = ref 0.0 in
  ((fun () -> !t), fun d -> t := !t +. d)

(* One synthetic tool run: [wall] seconds inside a "bolt" span, a
   simulated-cycles counter and a recovery-rate section — the paths the
   gate's rules key on. *)
let manifest_of_run ?(wall = 1.0) ?(cycles = 1_000) ?(recovery_rate = 0.9) () =
  let clock, advance = fake_clock () in
  let obs = Obs.create ~clock ~name:"obolt" () in
  Obs.span obs "bolt" (fun () -> advance wall);
  Obs.incr obs ~by:cycles "sim.cycles";
  Manifest.make ~tool:"obolt"
    ~argv:[ "obolt"; "prog.x" ]
    ~sections:
      [ ("recovery", Json.Obj [ ("rate", Json.Float recovery_rate) ]) ]
    obs

let record ?wall ?cycles ?recovery_rate () =
  History.of_manifest ~workload:"prog.x" ~git_rev:"abc1234" ~build_id:"bid-1"
    (manifest_of_run ?wall ?cycles ?recovery_rate ())

(* ---- meta stanza + schema compatibility ---- *)

let test_meta_stanza () =
  let m = manifest_of_run () in
  (match Json.member "meta" m with
  | Some meta ->
      Alcotest.(check (option string))
        "meta tool" (Some "obolt")
        (Json.get_string (Json.member "tool" meta));
      Alcotest.(check (option string))
        "meta schema" (Some Manifest.schema)
        (Json.get_string (Json.member "schema" meta));
      Alcotest.(check (option int))
        "meta version" (Some Manifest.version)
        (Json.get_int (Json.member "version" meta));
      Alcotest.(check (option string))
        "meta clock" (Some "monotonic")
        (Json.get_string (Json.member "clock" meta))
  | None -> Alcotest.fail "manifest carries no meta stanza");
  Alcotest.(check (option int))
    "version_of manifest" (Some Manifest.version) (Manifest.version_of m);
  (* the history record keeps the stanza verbatim *)
  let r = record () in
  Alcotest.(check bool)
    "record keeps meta" true
    (Json.member "meta" r <> None)

let test_compatibility () =
  let m = manifest_of_run () and r = record () in
  (* manifest and history record are deliberately cross-comparable *)
  (match Compare.compatible m r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "manifest vs record incompatible: %s" e);
  let expect_error label a b needle =
    match Compare.compatible a b with
    | Ok () -> Alcotest.failf "%s: expected incompatibility" label
    | Error e ->
        if not (contains e needle) then
          Alcotest.failf "%s: diagnostic %S does not mention %S" label e needle
  in
  expect_error "missing schema" (Json.Obj [ ("x", Json.Int 1) ]) r "no schema";
  expect_error "unknown schema"
    (Json.Obj [ ("schema", Json.String "weird-tool/1") ])
    r "unknown schema";
  expect_error "version mismatch"
    (Json.Obj [ ("schema", Json.String "obolt-history/99") ])
    r "version mismatch"

(* ---- diff ---- *)

let test_identical_runs_diff_clean () =
  let a = record () and b = record () in
  Alcotest.(check int)
    "identical records: no changed rows" 0
    (List.length (Compare.changed (Compare.diff_rows a b)));
  (* a manifest and the history record projected from it flatten to the
     same numeric namespace, so they diff clean too *)
  let m = manifest_of_run () in
  let r =
    History.of_manifest ~workload:"prog.x" ~git_rev:"abc1234"
      ~build_id:"bid-1" m
  in
  Alcotest.(check int)
    "manifest vs own record: no changed rows" 0
    (List.length (Compare.changed (Compare.diff_rows m r)))

let test_diff_reports_changes () =
  let a = record ~wall:1.0 ~cycles:1_000 ()
  and b = record ~wall:1.5 ~cycles:900 () in
  let changed = Compare.changed (Compare.diff_rows a b) in
  let paths = List.map (fun (r : Compare.row) -> r.Compare.r_path) changed in
  Alcotest.(check bool) "wall_s changed" true (List.mem "wall_s" paths);
  Alcotest.(check bool) "spans.bolt changed" true (List.mem "spans.bolt" paths);
  Alcotest.(check bool)
    "cycles changed" true
    (List.mem "metrics.sim.cycles.value" paths);
  let wall = List.find (fun (r : Compare.row) -> r.Compare.r_path = "wall_s") changed in
  (match wall.Compare.r_delta_pct with
  | Some d -> Alcotest.(check (float 1e-6)) "wall delta +50%" 50.0 d
  | None -> Alcotest.fail "wall_s delta missing")

(* ---- the regression gate ---- *)

let rule s =
  match Compare.parse_rule s with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse_rule %S: %s" s e

let test_rule_parsing () =
  let r = rule "spans.bolt=+10" in
  Alcotest.(check bool) "up is bad" true (r.Compare.ru_dir = Compare.Up_is_bad);
  Alcotest.(check (float 0.0)) "pct" 10.0 r.Compare.ru_pct;
  let r = rule "fleet.recovery.rate=-5" in
  Alcotest.(check bool) "down is bad" true (r.Compare.ru_dir = Compare.Down_is_bad);
  (match Compare.parse_rule "nonsense" with
  | Ok _ -> Alcotest.fail "bare path accepted"
  | Error _ -> ());
  (match Compare.parse_rule "x=+banana" with
  | Ok _ -> Alcotest.fail "non-numeric threshold accepted"
  | Error _ -> ());
  Alcotest.(check bool)
    "glob matches suffix" true
    (Compare.glob_match "*recovery.rate" "fleet.recovery.rate");
  Alcotest.(check bool)
    "glob matches infix" true
    (Compare.glob_match "spans.*" "spans.bolt");
  Alcotest.(check bool)
    "glob rejects" false
    (Compare.glob_match "*recovery.rate" "recovery.tier")

(* The acceptance check: a 20% pass-time regression against a 3-run
   baseline fires and names the metric; the same latest run passes the
   conservative default wall rule (30%). *)
let test_check_detects_pass_time_regression () =
  let baseline = [ record (); record (); record () ] in
  let latest = record ~wall:1.2 () in
  let verdicts =
    Compare.check ~rules:[ rule "spans.bolt=+10" ] ~baseline latest
  in
  (match verdicts with
  | [ v ] ->
      Alcotest.(check string) "names the metric" "spans.bolt" v.Compare.v_path;
      Alcotest.(check int) "baseline window" 3 v.Compare.v_runs;
      Alcotest.(check bool)
        "change is ~+20%" true
        (Float.abs (v.Compare.v_change_pct -. 20.0) < 1.0);
      let rendered = Fmt.str "%a" Compare.pp_verdict v in
      Alcotest.(check bool)
        "verdict names the metric" true
        (contains rendered "spans.bolt")
  | l -> Alcotest.failf "expected exactly 1 verdict, got %d" (List.length l));
  (* under the default rules the same 20% movement is within budget *)
  Alcotest.(check int)
    "default wall budget (30%) tolerates 20%" 0
    (List.length
       (Compare.check ~rules:Compare.default_rules ~baseline latest))

let test_check_detects_recovery_drop () =
  let baseline =
    [
      record ~recovery_rate:0.9 ();
      record ~recovery_rate:0.9 ();
      record ~recovery_rate:0.9 ();
    ]
  in
  let latest = record ~recovery_rate:0.5 () in
  let verdicts =
    Compare.check ~rules:Compare.default_rules ~baseline latest
  in
  (match verdicts with
  | [ v ] ->
      Alcotest.(check string) "names the metric" "recovery.rate" v.Compare.v_path;
      Alcotest.(check bool) "fell" true (v.Compare.v_change_pct < -10.0)
  | l -> Alcotest.failf "expected exactly 1 verdict, got %d" (List.length l));
  (* identical latest run passes the full default rule set *)
  Alcotest.(check int)
    "steady state is clean" 0
    (List.length
       (Compare.check ~rules:Compare.default_rules ~baseline
          (record ~recovery_rate:0.9 ())))

let test_check_zero_baseline () =
  let z = Json.Obj [ ("schema", Json.String History.schema); ("m", Json.Int 0) ] in
  let up = Json.Obj [ ("schema", Json.String History.schema); ("m", Json.Int 3) ] in
  (* a cost appearing where there was none fires Up_is_bad... *)
  (match
     Compare.check
       ~rules:[ rule "m=+10" ]
       ~baseline:[ z; z ] up
   with
  | [ v ] -> Alcotest.(check (float 0.0)) "change pinned to +100" 100.0 v.Compare.v_change_pct
  | l -> Alcotest.failf "expected 1 verdict, got %d" (List.length l));
  (* ...but a zero staying zero, or Down_is_bad from zero, never fires *)
  Alcotest.(check int)
    "zero->zero clean" 0
    (List.length (Compare.check ~rules:[ rule "m=+10" ] ~baseline:[ z ] z));
  Alcotest.(check int)
    "down-from-zero clean" 0
    (List.length (Compare.check ~rules:[ rule "m=-10" ] ~baseline:[ z ] up))

(* ---- the history store ---- *)

let test_history_roundtrip () =
  let path = fresh_temp "t_history.jsonl" in
  History.append path (record ~wall:1.0 ());
  History.append path (record ~wall:2.0 ());
  History.append path (record ~wall:3.0 ());
  let records, warnings = History.load path in
  Sys.remove path;
  Alcotest.(check int) "3 records" 3 (List.length records);
  Alcotest.(check int) "no warnings" 0 (List.length warnings);
  List.iteri
    (fun i r ->
      Alcotest.(check string) "tool stamp" "obolt" (History.tool_of r);
      Alcotest.(check string) "workload stamp" "prog.x" (History.workload_of r);
      Alcotest.(check string) "git stamp" "abc1234" (History.git_rev_of r);
      Alcotest.(check string) "build stamp" "bid-1" (History.build_id_of r);
      Alcotest.(check (float 1e-9))
        "wall in file order"
        (float_of_int (i + 1))
        (History.wall_of r))
    records

(* The tools' telemetry tail: the manifest it saves loads back equal to
   the run's, the history gains exactly one record stamped with the given
   workload and build-id, and each file written is reported. *)
let test_save_run () =
  let manifest_path = fresh_temp "t_save_run.json" in
  let history_path = fresh_temp "t_save_run.jsonl" in
  let clock, advance = fake_clock () in
  let obs = Obs.create ~clock ~name:"obolt" () in
  Obs.span obs "bolt" (fun () -> advance 0.5);
  let argv = [ "obolt"; "prog.x" ] in
  let sections = [ ("recovery", Json.Obj [ ("rate", Json.Float 0.9) ]) ] in
  let out = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer out in
  History.save_run ~ppf ~tool:"obolt" ~argv ~sections ~workload:"prog.x"
    ~build_id:"bid-7" ~trace_out:manifest_path ~history:history_path obs;
  let saved = Manifest.load manifest_path in
  let records, warnings = History.load history_path in
  Sys.remove manifest_path;
  Sys.remove history_path;
  Alcotest.(check string) "saved manifest loads back equal"
    (Json.to_string (Manifest.make ~tool:"obolt" ~argv ~sections obs))
    (Json.to_string saved);
  Alcotest.(check int) "no warnings" 0 (List.length warnings);
  (match records with
  | [ r ] ->
      Alcotest.(check string) "workload stamp" "prog.x" (History.workload_of r);
      Alcotest.(check string) "build stamp" "bid-7" (History.build_id_of r);
      Alcotest.(check (float 1e-9)) "wall from the manifest" 0.5
        (History.wall_of r)
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l));
  Alcotest.(check string) "each write reported"
    (Printf.sprintf "wrote manifest %s\nappended run history %s\n"
       manifest_path history_path)
    (Buffer.contents out)

let test_history_truncated_line () =
  let path = fresh_temp "t_history_torn.jsonl" in
  History.append path (record ());
  History.append path (record ());
  (* a writer that died mid-line: torn JSON, no trailing newline *)
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc {|{"schema":"obolt-history/1","tool":"ob|};
  close_out oc;
  let records, warnings = History.load path in
  Sys.remove path;
  Alcotest.(check int) "2 intact records survive" 2 (List.length records);
  (match warnings with
  | [ w ] -> Alcotest.(check int) "torn line reported" 3 w.History.w_line
  | l -> Alcotest.failf "expected 1 warning, got %d" (List.length l))

let test_history_blank_lines () =
  let path = fresh_temp "t_history_blank.jsonl" in
  History.append path (record ());
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc "\n   \n";
  close_out oc;
  History.append path (record ());
  let records, warnings = History.load path in
  Sys.remove path;
  Alcotest.(check int) "blank lines ignored" 2 (List.length records);
  Alcotest.(check int) "no warnings" 0 (List.length warnings)

let test_history_missing_file () =
  let records, warnings = History.load (in_temp "t_history_nonexistent.jsonl") in
  Alcotest.(check int) "no records" 0 (List.length records);
  Alcotest.(check int) "no warnings" 0 (List.length warnings)

let test_history_concurrent_appends () =
  (* four domains, each appending its own records: O_APPEND plus
     one-write-per-line means every line lands intact *)
  let path = fresh_temp "t_history_concurrent.jsonl" in
  let per_domain = 8 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              History.append path
                (Json.Obj
                   [
                     ("schema", Json.String History.schema);
                     ("tool", Json.String (Printf.sprintf "d%d" d));
                     ("seq", Json.Int i);
                   ])
            done))
  in
  List.iter Domain.join domains;
  let records, warnings = History.load path in
  Sys.remove path;
  Alcotest.(check int) "every append survived" (4 * per_domain)
    (List.length records);
  Alcotest.(check int) "no torn lines" 0 (List.length warnings);
  (* each writer's own records appear in its program order *)
  List.iter
    (fun d ->
      let tool = Printf.sprintf "d%d" d in
      let seqs =
        List.filter_map
          (fun r ->
            if History.tool_of r = tool then
              Json.get_int (Json.member "seq" r)
            else None)
          records
      in
      Alcotest.(check (list int))
        (tool ^ " in order")
        (List.init per_domain Fun.id)
        seqs)
    [ 0; 1; 2; 3 ]

(* ---- fleet health monitor over a simulated rollout ---- *)

let rollout_cfg =
  {
    FS.default_config with
    FS.fc_hosts = 4;
    fc_stale = 2;
    fc_requests = 600;
    fc_params =
      { FS.default_config.FS.fc_params with Gen.funcs = 120; modules = 4 };
  }

let test_monitor_rollout () =
  let r, ticks = FS.rollout ~ticks:3 rollout_cfg in
  let target_id = P.build_id r.FS.fr_build in
  let fps = P.fingerprints r.FS.fr_build in
  let obs = Obs.create ~name:"test-monitor" () in
  let monitor = Monitor.create () in
  let opts =
    { Merge.default_options with Merge.expect_build_id = Some target_id }
  in
  List.iter
    (fun t ->
      ignore
        (Monitor.observe ~obs monitor ~opts ~fingerprints:fps
           (FS.tick_loaded_shards t)))
    ticks;
  let tks = Monitor.ticks monitor in
  Alcotest.(check int) "3 ticks recorded" 3 (List.length tks);
  let configured_stale =
    List.filter_map
      (fun (h : FS.host) -> if h.FS.h_stale then Some h.FS.h_name else None)
      r.FS.fr_hosts
  in
  Alcotest.(check int) "fleet_sim configured 2 stale hosts" 2
    (List.length configured_stale);
  (* tick 0: the monitor flags exactly the configured stale hosts *)
  let t0 = List.hd tks in
  Alcotest.(check (slist string compare))
    "tick 0 flags every configured stale host" configured_stale
    (Monitor.stale_hosts t0);
  let all_alerts = Monitor.alerts monitor in
  List.iter
    (fun host ->
      Alcotest.(check bool)
        (host ^ " raised a stale_build alert at tick 0")
        true
        (List.exists
           (fun (a : Monitor.alert) ->
             a.Monitor.al_kind = "stale_build"
             && a.Monitor.al_host = host
             && a.Monitor.al_tick = 0)
           all_alerts))
    configured_stale;
  (* stale recovery ran against the stale shards *)
  (match t0.Monitor.tk_quality.Quality.q_recovery with
  | Some st ->
      Alcotest.(check bool)
        "recovery matched something" true
        (Bolt_profile.Stale_match.recovery_rate st > 0.0)
  | None -> Alcotest.fail "no recovery stats despite stale shards");
  (* one host upgrades per tick: stale count decreases to zero *)
  Alcotest.(check (list int))
    "rollout converges one host per tick" [ 2; 1; 0 ]
    (List.map (fun tk -> List.length (Monitor.stale_hosts tk)) tks);
  (* the per-host view and the health table reflect the rollout *)
  let rendered = Fmt.str "%a" Monitor.pp monitor in
  List.iter
    (fun host ->
      Alcotest.(check bool)
        (host ^ " appears in the health table")
        true (contains rendered host))
    configured_stale;
  Alcotest.(check bool)
    "alerts rendered" true
    (contains rendered "stale_build");
  (* manifest section: the longitudinal series and final host states *)
  let name, j = Monitor.manifest_section monitor in
  Alcotest.(check string) "section name" "fleet_health" name;
  (match Json.get_list (Json.member "series" j) with
  | Some series -> Alcotest.(check int) "series has 3 points" 3 (List.length series)
  | None -> Alcotest.fail "no series in fleet_health");
  (match Json.get_list (Json.member "hosts" j) with
  | Some hosts ->
      Alcotest.(check int) "4 host states" 4 (List.length hosts);
      let stale_flags =
        List.filter_map
          (fun h ->
            match Json.member "stale" h with
            | Some (Json.Bool b) -> Some b
            | _ -> None)
          hosts
      in
      Alcotest.(check int)
        "latest tick: no host stale" 0
        (List.length (List.filter Fun.id stale_flags))
  | None -> Alcotest.fail "no hosts in fleet_health");
  (* alert flow landed in obs as structured events *)
  let events = Bolt_obs.Trace.events obs.Obs.trace in
  Alcotest.(check bool)
    "monitor events emitted" true
    (List.exists
       (fun (e : Bolt_obs.Trace.event) ->
         e.Bolt_obs.Trace.ev_name = "fleet.monitor.stale_build")
       events)

(* A --threshold rule whose path matches no metric of the gated record
   can never fire; [Compare.unmatched_rules] is how bstat warns. *)
let test_unmatched_rules () =
  let record =
    Json.Obj
      [
        ("wall_s", Json.Float 1.0);
        ("spans", Json.Obj [ ("bolt", Json.Float 0.5) ]);
      ]
  in
  let names rules =
    List.map (fun r -> r.Compare.ru_path) (Compare.unmatched_rules ~rules record)
  in
  Alcotest.(check (list string))
    "typo'd path reported" [ "walls_s" ]
    (names [ rule "walls_s=+10"; rule "wall_s=+10" ]);
  Alcotest.(check (list string))
    "globs count as matched" []
    (names [ rule "spans.*=+10" ]);
  Alcotest.(check (list string))
    "unmatched glob reported" [ "fleet.*" ]
    (names [ rule "fleet.*=-5" ])

(* Satellite property: on a 1000-host simulated tape, the monitor's
   threshold alert set is identical for any host-arrival order — the
   health view is a function of the fleet's state, never of aggregation
   schedule. *)
let test_alerts_order_invariant () =
  let sc =
    {
      FS.default_scale with
      FS.sc_hosts = 1_000;
      sc_funcs = 200;
      sc_lines = 20;
    }
  in
  let shards =
    List.map
      (fun (_, host, text) ->
        let prof, _ = Bolt_profile.Fdata.parse text in
        Merge.shard_of_profile ~name:host prof)
      (FS.scale_tape sc)
  in
  let observe order =
    let monitor = Monitor.create () in
    let merged, _ =
      Monitor.observe monitor
        ~opts:
          {
            Merge.default_options with
            Merge.expect_build_id = Some FS.scale_build_id;
          }
        ~fingerprints:[] order
    in
    let alerts =
      List.sort compare
        (List.map
           (fun (a : Monitor.alert) -> (a.Monitor.al_kind, a.Monitor.al_host))
           (Monitor.alerts monitor))
    in
    (alerts, Bolt_profile.Fdata.to_string merged)
  in
  let perm =
    (* deterministic shuffle: sort by a host-name hash *)
    List.sort
      (fun a b ->
        compare (Hashtbl.hash (Merge.host_of a)) (Hashtbl.hash (Merge.host_of b)))
      shards
  in
  let base_alerts, base_merged = observe shards in
  Alcotest.(check bool) "the tape raises alerts at all" true (base_alerts <> []);
  List.iter
    (fun (label, order) ->
      let alerts, merged = observe order in
      Alcotest.(check int)
        (label ^ ": same alert count")
        (List.length base_alerts) (List.length alerts);
      Alcotest.(check bool) (label ^ ": same alert set") true
        (alerts = base_alerts);
      Alcotest.(check string) (label ^ ": same merged bytes") base_merged merged)
    [ ("reversed", List.rev shards); ("shuffled", perm) ]

(* One round, one revision: with no expected id, the quality report
   and the health tick both judge staleness against the modal shard
   revision, the build-id stamped on the merged profile. *)
let test_round_one_revision () =
  let shard host build events =
    Merge.shard_of_profile ~name:host
      (fst
         (Bolt_profile.Fdata.parse
            (Printf.sprintf
               "mode lbr\nH host %s\nH build-id %s\nH timestamp 1000\n\
                H events %d\nB main 0 main 8 %d 0\n"
               host build events events)))
  in
  let shards =
    [ shard "web00" "aaaa" 100; shard "web01" "aaaa" 200; shard "web02" "bbbb" 500 ]
  in
  let monitor = Monitor.create () in
  let merged, tk =
    Monitor.observe monitor ~opts:Merge.default_options ~fingerprints:[] shards
  in
  let q = tk.Monitor.tk_quality in
  Alcotest.(check string) "merged profile stamped with the modal revision"
    "aaaa" (Option.get merged.Bolt_profile.Fdata.header).Bolt_profile.Fdata.hd_build_id;
  Alcotest.(check string) "quality judges against it" "aaaa"
    q.Quality.q_expected_build_id;
  Alcotest.(check string) "so does the tick" "aaaa" tk.Monitor.tk_expected_build_id;
  Alcotest.(check int) "quality: one stale shard" 1 q.Quality.q_stale_shards;
  Alcotest.(check (float 1e-9)) "its events" 62.5 q.Quality.q_staleness_pct;
  Alcotest.(check (list string)) "tick: the same stale host" [ "web02" ]
    (Monitor.stale_hosts tk);
  Alcotest.(check (list (pair string string)))
    "stale_build alert on the minority host only"
    [ ("stale_build", "web02") ]
    (List.filter_map
       (fun (a : Monitor.alert) ->
         if a.Monitor.al_kind = "stale_build" then
           Some (a.Monitor.al_kind, a.Monitor.al_host)
         else None)
       (Monitor.alerts monitor));
  (* the two manifest sections name the same revision and stale hosts *)
  let _, fleet = Quality.manifest_section q in
  let _, health = Monitor.manifest_section monitor in
  Alcotest.(check (option string)) "fleet section revision" (Some "aaaa")
    (Json.get_string (Json.member "expected_build_id" fleet));
  Alcotest.(check (option string)) "fleet_health section revision" (Some "aaaa")
    (Json.get_string (Json.member "expected_build_id" health));
  Alcotest.(check (list string)) "fleet_health stale hosts" [ "web02" ]
    (List.filter_map
       (fun h ->
         if Json.member "stale" h = Some (Json.Bool true) then
           Json.get_string (Json.member "host" h)
         else None)
       (Option.value ~default:[] (Json.get_list (Json.member "hosts" health))));
  Alcotest.(check (option int)) "fleet section stale shards" (Some 1)
    (Json.get_int (Json.member "stale_shards" fleet))

let suite =
  [
    Alcotest.test_case "manifest meta stanza" `Quick test_meta_stanza;
    Alcotest.test_case "schema compatibility diagnostics" `Quick test_compatibility;
    Alcotest.test_case "identical runs diff clean" `Quick test_identical_runs_diff_clean;
    Alcotest.test_case "diff reports changed paths" `Quick test_diff_reports_changes;
    Alcotest.test_case "threshold rule parsing and globs" `Quick test_rule_parsing;
    Alcotest.test_case "gate: 20% pass-time regression vs 3-run baseline" `Quick
      test_check_detects_pass_time_regression;
    Alcotest.test_case "gate: recovery-rate drop fires default rules" `Quick
      test_check_detects_recovery_drop;
    Alcotest.test_case "gate: zero-baseline semantics" `Quick test_check_zero_baseline;
    Alcotest.test_case "history: append/load round-trip" `Quick test_history_roundtrip;
    Alcotest.test_case "history: torn final line skipped with warning" `Quick
      test_history_truncated_line;
    Alcotest.test_case "history: save_run writes manifest and one record" `Quick
      test_save_run;
    Alcotest.test_case "history: blank lines ignored" `Quick test_history_blank_lines;
    Alcotest.test_case "history: missing file loads empty" `Quick
      test_history_missing_file;
    Alcotest.test_case "history: concurrent appenders stay line-atomic" `Quick
      test_history_concurrent_appends;
    Alcotest.test_case "monitor: rollout flags stale hosts until convergence"
      `Slow test_monitor_rollout;
    Alcotest.test_case "gate: unmatched threshold rules reported" `Quick
      test_unmatched_rules;
    Alcotest.test_case "monitor: 1000-host alerts invariant to arrival order"
      `Slow test_alerts_order_invariant;
    Alcotest.test_case "monitor: one round judges one revision" `Quick
      test_round_one_revision;
  ]
