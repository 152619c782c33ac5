(* Fleet aggregation tests: the merge algebra (QCheck properties over
   random shards), a golden 3-host merge, order byte determinism, the
   shard loader's skip rule for both merge feeders, the quality report, stale-shard tolerance through the optimizer, and the
   end-to-end acceptance check — a profile merged across a simulated
   fleet must serve fleet traffic at least as well as any single host's
   shard. *)

module Fdata = Bolt_profile.Fdata
module Merge = Bolt_fleet.Merge
module Quality = Bolt_fleet.Quality
module FS = Bolt_fleet.Fleet_sim
module Gen = Bolt_workloads.Gen
module P = Bolt_pipeline.Pipeline

(* ------------------------------------------------------------------ *)
(* Builders                                                           *)

let mk_branch ff fo tf to_ c m =
  {
    Fdata.br_from_func = ff;
    br_from_off = fo;
    br_to_func = tf;
    br_to_off = to_;
    br_count = c;
    br_mispreds = m;
  }

let mk_prof ?(host = "") ?(build = "") ?(ts = 0) ?(events = 0L)
    ?(branches = []) ?(ranges = []) ?(samples = []) () =
  {
    Fdata.lbr = true;
    header =
      Some
        {
          Fdata.hd_host = host;
          hd_build_id = build;
          hd_timestamp = ts;
          hd_events = events;
          hd_weight = 1.0;
        };
    branches;
    ranges;
    samples;
    total_samples = 0L;
    fingerprints = [];
  }

let shards_of_profiles ps =
  List.mapi
    (fun i p -> Merge.shard_of_profile ~name:(Printf.sprintf "s%d" i) p)
    ps

(* ------------------------------------------------------------------ *)
(* Random shard generators                                            *)

let gen_func = QCheck.Gen.oneofl [ "main"; "work"; "dispatch"; "aux" ]
let gen_off = QCheck.Gen.map (fun n -> n * 4) (QCheck.Gen.int_range 0 16)
let gen_count = QCheck.Gen.map Int64.of_int (QCheck.Gen.int_range 0 1_000)

let gen_branch =
  let open QCheck.Gen in
  gen_func >>= fun ff ->
  gen_off >>= fun fo ->
  gen_func >>= fun tf ->
  gen_off >>= fun to_ ->
  gen_count >>= fun c ->
  map (fun m -> mk_branch ff fo tf to_ c m) gen_count

let gen_range =
  let open QCheck.Gen in
  gen_func >>= fun f ->
  gen_off >>= fun s ->
  int_range 0 16 >>= fun len ->
  map
    (fun c -> { Fdata.rg_func = f; rg_start = s; rg_end = s + (4 * len); rg_count = c })
    gen_count

let gen_sample =
  let open QCheck.Gen in
  gen_func >>= fun f ->
  gen_off >>= fun o ->
  map (fun c -> { Fdata.sm_func = f; sm_off = o; sm_count = c }) gen_count

(* Weight stays 1.0 here: weighting has its own linearity property. *)
let gen_profile =
  let open QCheck.Gen in
  list_size (int_range 0 10) gen_branch >>= fun branches ->
  list_size (int_range 0 6) gen_range >>= fun ranges ->
  list_size (int_range 0 6) gen_sample >>= fun samples ->
  oneofl [ "web"; "db"; "cache"; "" ] >>= fun host ->
  oneofl [ "revX"; "revY"; "" ] >>= fun build ->
  int_range 0 100 >>= fun ts ->
  map
    (fun ev ->
      mk_prof ~host ~build ~ts ~events:(Int64.of_int ev) ~branches ~ranges
        ~samples ())
    (int_range 0 500)

let print_profiles ps = String.concat "---\n" (List.map Fdata.to_string ps)

let arb_shards =
  QCheck.make ~print:print_profiles
    (QCheck.Gen.list_size (QCheck.Gen.int_range 1 5) gen_profile)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                  *)

(* Byte-identical output for any shard ordering. *)
let prop_order_independent =
  QCheck.Test.make ~name:"merge is order-independent (bytes)" ~count:200
    arb_shards (fun ps ->
      let s = shards_of_profiles ps in
      let fwd = Fdata.to_string (Merge.merge s) in
      let rev = Fdata.to_string (Merge.merge (List.rev s)) in
      let rot = match s with [] -> [] | x :: tl -> tl @ [ x ] in
      fwd = rev && fwd = Fdata.to_string (Merge.merge rot))

(* Incremental (left-fold) merging equals the batch merge on records and
   on the provenance totals.  The merged build-id is excluded: it is the
   *modal* shard build-id, and a mode over [a; b] then [c] is not the
   mode over [a; b; c] — pin --expect-build-id when merging
   incrementally and the whole header is associative too. *)
let strip p = Fdata.to_string { p with Fdata.header = None }

let prop_incremental_eq_batch =
  QCheck.Test.make ~name:"incremental merge == batch merge (records)"
    ~count:100 arb_shards (fun ps ->
      match shards_of_profiles ps with
      | [] | [ _ ] -> true
      | first :: rest ->
          let batch = Merge.merge (first :: rest) in
          let inc =
            List.fold_left
              (fun acc sh ->
                Merge.merge [ Merge.shard_of_profile ~name:"acc" acc; sh ])
              first.Merge.sh_prof rest
          in
          let hb = Option.get batch.Fdata.header
          and hi = Option.get inc.Fdata.header in
          strip batch = strip inc
          && { hb with Fdata.hd_build_id = "" }
             = { hi with Fdata.hd_build_id = "" })

(* An integer --weight multiplies every count exactly (far from
   saturation, integer scaling has no rounding). *)
let arb_prof_k =
  QCheck.make
    ~print:(fun (p, k) -> Printf.sprintf "k=%d\n%s" k (Fdata.to_string p))
    (QCheck.Gen.pair gen_profile (QCheck.Gen.int_range 1 8))

let prop_weight_linear =
  QCheck.Test.make ~name:"integer host weight multiplies every count"
    ~count:100 arb_prof_k (fun (p, k) ->
      let sh = Merge.shard_of_profile ~name:"s0" p in
      let opts =
        {
          Merge.default_options with
          Merge.weights = [ (Merge.host_of sh, float_of_int k) ];
        }
      in
      let w = Merge.merge ~opts [ sh ] in
      let base = Merge.merge [ sh ] in
      let k64 = Int64.of_int k in
      List.length w.Fdata.branches = List.length base.Fdata.branches
      && List.length w.Fdata.ranges = List.length base.Fdata.ranges
      && List.length w.Fdata.samples = List.length base.Fdata.samples
      && List.for_all2
           (fun (a : Fdata.branch) (b : Fdata.branch) ->
             a.br_count = Int64.mul k64 b.br_count
             && a.br_mispreds = Int64.mul k64 b.br_mispreds)
           w.Fdata.branches base.Fdata.branches
      && List.for_all2
           (fun (a : Fdata.range) (b : Fdata.range) ->
             a.rg_count = Int64.mul k64 b.rg_count)
           w.Fdata.ranges base.Fdata.ranges
      && List.for_all2
           (fun (a : Fdata.sample) (b : Fdata.sample) ->
             a.sm_count = Int64.mul k64 b.sm_count)
           w.Fdata.samples base.Fdata.samples)

(* Raising the decay rate can only shrink an old shard's contribution. *)
let old_key_count merged =
  match
    List.find_opt
      (fun (b : Fdata.branch) -> b.br_from_func = "work" && b.br_from_off = 0)
      merged.Fdata.branches
  with
  | Some b -> b.Fdata.br_count
  | None -> 0L

let decay_shards =
  shards_of_profiles
    [
      mk_prof ~host:"old" ~ts:100
        ~branches:[ mk_branch "work" 0 "work" 8 1_000L 10L ]
        ();
      mk_prof ~host:"new" ~ts:200
        ~branches:[ mk_branch "main" 0 "main" 4 500L 5L ]
        ();
    ]

let prop_decay_monotone =
  QCheck.Test.make ~name:"older shards decay monotonically in lambda"
    ~count:100
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "l1=%h l2=%h" a b)
       (QCheck.Gen.pair
          (QCheck.Gen.float_bound_inclusive 0.05)
          (QCheck.Gen.float_bound_inclusive 0.05)))
    (fun (a, b) ->
      let l1 = min a b and l2 = max a b in
      let at l =
        old_key_count
          (Merge.merge
             ~opts:{ Merge.default_options with Merge.decay = Some l }
             decay_shards)
      in
      Int64.compare (at l2) (at l1) <= 0)

(* ------------------------------------------------------------------ *)
(* Golden 3-host merge                                                *)

let golden_shards () =
  shards_of_profiles
    [
      mk_prof ~host:"web00" ~build:"revX" ~ts:10 ~events:100L
        ~branches:
          [
            mk_branch "main" 4 "main" 20 10L 1L;
            mk_branch "helper" 0 "helper" 8 5L 0L;
          ]
        ();
      mk_prof ~host:"web01" ~build:"revX" ~ts:20 ~events:50L
        ~branches:
          [
            mk_branch "main" 4 "main" 20 7L 2L;
            mk_branch "main" 30 "helper" 0 3L 0L;
          ]
        ();
      mk_prof ~host:"web02" ~build:"revY" ~ts:5 ~events:30L
        ~branches:[ mk_branch "main" 4 "main" 20 1L 0L ]
        ~ranges:[ { Fdata.rg_func = "main"; rg_start = 0; rg_end = 12; rg_count = 9L } ]
        ();
    ]

let test_golden_merge () =
  let merged = Merge.merge (golden_shards ()) in
  let expected =
    String.concat "\n"
      [
        "mode lbr";
        "H host fleet";
        "H build-id revX";
        "H timestamp 20";
        "H events 180";
        "B helper 0 helper 8 5 0";
        "B main 4 main 20 18 3";
        "B main 30 helper 0 3 0";
        "F main 0 12 9";
        "";
      ]
  in
  Alcotest.(check string) "golden merge bytes" expected (Fdata.to_string merged)

(* --expect-build-id overrides the modal stamp and drives staleness. *)
let test_expect_build_id () =
  let opts =
    { Merge.default_options with Merge.expect_build_id = Some "revY" }
  in
  let merged = Merge.merge ~opts (golden_shards ()) in
  Alcotest.(check string)
    "expected id wins over modal" "revY"
    (Option.get merged.Fdata.header).Fdata.hd_build_id

(* ------------------------------------------------------------------ *)
(* Shard loading                                                      *)

(* A torn shard (its only record truncated mid-line) salvages nothing,
   so the loader skips it for both feeders: neither its header's
   timestamp (which would decay the good shard) nor its event total may
   reach the merge, and the streamed and materialized merges agree. *)
let test_torn_shard_skipped () =
  let write name text =
    let path = Filename.concat (Filename.get_temp_dir_name ()) name in
    Out_channel.with_open_text path (fun oc -> output_string oc text);
    path
  in
  let good =
    write "fleet-good.fdata"
      "H timestamp 1000\nB main 4 main 20 700 0\nS aux 1 300\n"
  in
  let torn =
    write "fleet-torn.fdata" "H timestamp 5000\nH events 999999\nB main 4 ma"
  in
  let opts = { Merge.default_options with Merge.decay = Some 1e-3 } in
  let shards, skipped = Merge.load_shards [ good; torn ] in
  let texts, skipped' = Merge.load_texts [ good; torn ] in
  Alcotest.(check (list string))
    "torn shard skipped" [ torn ]
    (List.map (fun (s : Merge.skip) -> s.Merge.sk_path) skipped);
  Alcotest.(check bool) "same skip list" true (skipped = skipped');
  let merged = Merge.merge ~opts shards in
  Alcotest.(check string) "streamed == materialized"
    (Fdata.to_string merged)
    (Fdata.to_string (Merge.merge_stream ~opts texts));
  Alcotest.(check (list int64)) "good shard's counts, undecayed" [ 700L; 300L ]
    (List.map (fun (b : Fdata.branch) -> b.Fdata.br_count) merged.Fdata.branches
    @ List.map (fun (s : Fdata.sample) -> s.Fdata.sm_count) merged.Fdata.samples);
  Alcotest.(check int64) "good shard's events only" 1000L
    (Option.get merged.Fdata.header).Fdata.hd_events

(* ------------------------------------------------------------------ *)
(* Quality report                                                     *)

let test_quality_report () =
  let shards = golden_shards () in
  let merged = Merge.merge shards in
  let q, _ = Quality.assess ~expected_build_id:"revX" shards ~merged in
  Alcotest.(check int) "shards" 3 q.Quality.q_shards;
  Alcotest.(check (list string)) "hosts"
    [ "web00"; "web01"; "web02" ] q.Quality.q_hosts;
  Alcotest.(check int64) "events" 180L q.Quality.q_events;
  Alcotest.(check int) "stale shards" 1 q.Quality.q_stale_shards;
  Alcotest.(check int) "unstamped shards" 0 q.Quality.q_unstamped_shards;
  (* the revY shard carries 30 of 180 events *)
  Alcotest.(check (float 1e-6)) "staleness pct" (100.0 *. 30.0 /. 180.0)
    q.Quality.q_staleness_pct;
  (* merged branch keys: 3, of which only main+4->main+20 is multi-shard *)
  Alcotest.(check (float 1e-6)) "agreement pct" (100.0 /. 3.0)
    q.Quality.q_agreement_pct;
  Alcotest.(check (float 1e-6)) "divergence pct" (200.0 /. 3.0)
    q.Quality.q_divergence_pct;
  Alcotest.(check (list (pair string int))) "build tally"
    [ ("revX", 2); ("revY", 1) ] q.Quality.q_build_ids;
  match Quality.manifest_section q with
  | "fleet", Bolt_obs.Json.Obj fields ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " in manifest") true (List.mem_assoc k fields))
        [ "shards"; "coverage_pct"; "agreement_pct"; "staleness_pct"; "build_ids" ]
  | _ -> Alcotest.fail "manifest section shape"

let test_unstamped_not_stale () =
  let shards =
    shards_of_profiles
      [
        mk_prof ~host:"a" ~build:"revX" ~events:10L
          ~branches:[ mk_branch "main" 0 "main" 4 1L 0L ]
          ();
        mk_prof ~host:"b" ~events:10L
          ~branches:[ mk_branch "main" 0 "main" 4 1L 0L ]
          ();
      ]
  in
  let merged = Merge.merge shards in
  let q, _ = Quality.assess ~expected_build_id:"revX" shards ~merged in
  Alcotest.(check int) "unstamped" 1 q.Quality.q_unstamped_shards;
  Alcotest.(check int) "not counted stale" 0 q.Quality.q_stale_shards

(* ------------------------------------------------------------------ *)
(* Simulated fleet: stale shards flow through the optimizer            *)

let small_fleet ~hosts ~requests =
  {
    FS.default_config with
    FS.fc_hosts = hosts;
    fc_stale = 1;
    fc_requests = requests;
    fc_params =
      { FS.default_config.FS.fc_params with Gen.funcs = 120; modules = 4 };
  }

let test_stale_shard_tolerated () =
  let r = FS.run (small_fleet ~hosts:3 ~requests:600) in
  let shards = FS.loaded_shards r in
  let expect = r.FS.fr_build.P.exe.Bolt_obj.Objfile.build_id in
  let merged =
    Merge.merge
      ~opts:{ Merge.default_options with Merge.expect_build_id = Some expect }
      shards
  in
  let q, _ = Quality.assess ~expected_build_id:expect shards ~merged in
  Alcotest.(check int) "one stale shard detected" 1 q.Quality.q_stale_shards;
  (* the merged profile — stale records included — must optimize the
     current build without quarantining anything *)
  let b', report = P.bolt r.FS.fr_build merged in
  Alcotest.(check (list (pair string string)))
    "no quarantined functions" [] report.Bolt_core.Bolt.r_quarantined;
  Alcotest.(check bool) "stale records detected" true
    (report.Bolt_core.Bolt.r_profile_staleness > 0.0);
  (* behaviour is preserved on fleet traffic *)
  let base = P.run r.FS.fr_build ~input:r.FS.fr_fleet_input in
  let opt = P.run b' ~input:r.FS.fr_fleet_input in
  Alcotest.(check bool) "same behaviour" true (P.same_behaviour base opt)

(* The subsystem's end-to-end acceptance check: on fleet-wide traffic,
   the profile merged as a deployment pipeline would merge it — age
   decay downweighting the day-old stale shard, target build-id pinned —
   must direct the optimizer at least as well as the best single host's
   shard (taken branches, the layout objective). *)
let test_merged_beats_any_single () =
  let cfg =
    {
      (small_fleet ~hosts:8 ~requests:800) with
      FS.fc_sampling =
        { P.default_sampling with Bolt_sim.Machine.period = 97 };
    }
  in
  let r = FS.run cfg in
  let input = r.FS.fr_fleet_input in
  let taken prof =
    let b', _ = P.bolt r.FS.fr_build prof in
    (P.run b' ~input).Bolt_sim.Machine.counters.Bolt_sim.Machine.taken_branches
  in
  (* merge as a deployment pipeline would: the day-old stale shard is
     decayed to ~nothing, and the target build-id is pinned *)
  let opts =
    {
      Merge.default_options with
      Merge.decay = Some 1e-4;
      expect_build_id = Some r.FS.fr_build.P.exe.Bolt_obj.Objfile.build_id;
    }
  in
  let merged = taken (Merge.merge ~opts (FS.loaded_shards r)) in
  let singles =
    List.map (fun ((h : FS.host), prof) -> (h.FS.h_name, taken prof)) r.FS.fr_shards
  in
  List.iter
    (fun (name, single) ->
      Fmt.epr "fleet e2e: %s alone %d, merged %d@." name single merged)
    singles;
  List.iter
    (fun (name, single) ->
      if merged > single then
        Alcotest.failf "merged profile worse than %s alone: %d > %d" name
          merged single)
    singles

let suite =
  [
    QCheck_alcotest.to_alcotest prop_order_independent;
    QCheck_alcotest.to_alcotest prop_incremental_eq_batch;
    QCheck_alcotest.to_alcotest prop_weight_linear;
    QCheck_alcotest.to_alcotest prop_decay_monotone;
    Alcotest.test_case "golden-3-host-merge" `Quick test_golden_merge;
    Alcotest.test_case "expect-build-id" `Quick test_expect_build_id;
    Alcotest.test_case "torn shard skipped by both feeders" `Quick
      test_torn_shard_skipped;
    Alcotest.test_case "quality-report" `Quick test_quality_report;
    Alcotest.test_case "unstamped-not-stale" `Quick test_unstamped_not_stale;
    Alcotest.test_case "stale-shard-tolerated" `Slow test_stale_shard_tolerated;
    Alcotest.test_case "merged-beats-any-single" `Slow test_merged_beats_any_single;
  ]
