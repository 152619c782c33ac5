(* Continuous-optimization service tests: the bounded-memory sketch
   (top-K eviction, newest-shard-wins, the global byte budget), the
   batch merge's byte parity with the streaming merge on a fleet tape,
   the trigger policy on scripted tapes, tape/spool
   parsing, injected-clock manifest reproducibility, and the e2e
   acceptance check — a 1000-host tape with drifting revisions must
   fire a re-optimization whose binary beats the pre-trigger build,
   byte-identically for any arrival order and any -j. *)

module Fdata = Bolt_profile.Fdata
module Merge = Bolt_fleet.Merge
module Monitor = Bolt_fleet.Monitor
module Quality = Bolt_fleet.Quality
module FS = Bolt_fleet.Fleet_sim
module S = Bolt_service.Service
module Sk = Bolt_service.Sketch
module P = Bolt_pipeline.Pipeline
module Json = Bolt_obs.Json
module Obs = Bolt_obs.Obs
module Manifest = Bolt_obs.Manifest

let in_temp name = Filename.concat (Filename.get_temp_dir_name ()) name

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Sketch: the bounded per-host state                                 *)

(* A one-host shard with [n] functions of strictly increasing weight:
   f0 is the coldest, f(n-1) the hottest. *)
let ramp_shard ?(host = "web01") ?(build = "rev1") ?(ts = 1_000) n =
  let b = Buffer.create 256 in
  Buffer.add_string b "mode lbr\n";
  Buffer.add_string b (Printf.sprintf "H host %s\n" host);
  Buffer.add_string b (Printf.sprintf "H build-id %s\n" build);
  Buffer.add_string b (Printf.sprintf "H timestamp %d\n" ts);
  Buffer.add_string b (Printf.sprintf "H events %d\n" (n * 100));
  for i = 0 to n - 1 do
    Buffer.add_string b
      (Printf.sprintf "B f%02d 0 f%02d 8 %d 0\n" i i ((i + 1) * 10))
  done;
  Buffer.contents b

let test_sketch_topk () =
  let sk = Sk.create ~topk:4 ~budget:(1 lsl 20) () in
  let ig = Sk.ingest sk ~host:"web01" (ramp_shard 10) in
  Alcotest.(check int) "records ingested" 10 ig.Sk.ig_records;
  Alcotest.(check int) "top-K entries survive" 4 (Sk.funcs sk);
  Alcotest.(check int) "the rest evicted" 6 (Sk.evictions sk);
  (* evicted mass = counts of f0..f5 = 10+20+...+60 *)
  Alcotest.(check int64) "evicted event mass" 210L (Sk.evicted_events sk);
  match Sk.to_shards sk with
  | [ sh ] ->
      let kept =
        List.map
          (fun (b : Fdata.branch) -> b.Fdata.br_from_func)
          sh.Merge.sh_prof.Fdata.branches
      in
      Alcotest.(check (list string)) "the hottest K kept"
        [ "f06"; "f07"; "f08"; "f09" ] (List.sort compare kept)
  | shards -> Alcotest.failf "expected 1 shard, got %d" (List.length shards)

let test_sketch_latest_wins () =
  let sk = Sk.create ~topk:64 ~budget:(1 lsl 20) () in
  ignore (Sk.ingest sk ~host:"web01" (ramp_shard ~build:"rev1" ~ts:100 3));
  ignore (Sk.ingest sk ~host:"web01" "mode lbr\nH host web01\nH build-id rev2\nH timestamp 200\nH events 7\nB g 0 g 4 7 0\n");
  Alcotest.(check int) "one host" 1 (Sk.hosts sk);
  Alcotest.(check int) "old shard replaced, not merged" 1 (Sk.funcs sk);
  (* supersession is not memory pressure: the eviction counter only
     tracks the budget/top-K bound *)
  Alcotest.(check int) "supersession is not an eviction" 0 (Sk.evictions sk);
  match Sk.to_shards sk with
  | [ sh ] ->
      let h = Option.get sh.Merge.sh_prof.Fdata.header in
      Alcotest.(check string) "newest build-id" "rev2" h.Fdata.hd_build_id;
      Alcotest.(check int) "newest timestamp" 200 h.Fdata.hd_timestamp
  | _ -> Alcotest.fail "expected exactly one shard"

let test_sketch_budget () =
  let budget = 4_096 in
  let sk = Sk.create ~topk:512 ~budget () in
  for i = 0 to 9 do
    ignore
      (Sk.ingest sk
         ~host:(Printf.sprintf "web%02d" i)
         (ramp_shard ~host:(Printf.sprintf "web%02d" i) 20));
    Alcotest.(check bool)
      (Printf.sprintf "occupancy <= budget after ingest %d" i)
      true
      (Sk.occupancy sk <= budget)
  done;
  Alcotest.(check bool) "peak <= budget" true (Sk.peak sk <= budget);
  Alcotest.(check bool) "the bound forced evictions" true (Sk.evictions sk > 0);
  Alcotest.(check int) "host states survive eviction" 10 (Sk.hosts sk)

(* A host that moves to a new revision must not carry the old
   revision's fingerprint table: the merged profile is stamped with the
   new build-id, and stale recovery reads that table as the new
   revision's. *)
let test_sketch_fingerprints_follow_revision () =
  let shard ~build ~g =
    Printf.sprintf "mode lbr\nH host web01\nH build-id %s\n%sB f00 0 f00 8 5 0\n"
      build
      (if g then "G f00 16 abcd 1234 -\n" else "")
  in
  let fingerprints sk =
    match Sk.to_shards sk with
    | [ sh ] ->
        List.map
          (fun f -> f.Bolt_obj.Fingerprint.fp_func)
          sh.Merge.sh_prof.Fdata.fingerprints
    | _ -> Alcotest.fail "expected exactly one shard"
  in
  let sk = Sk.create ~topk:64 ~budget:(1 lsl 20) () in
  ignore (Sk.ingest sk ~host:"web01" (shard ~build:"rev1" ~g:true));
  ignore (Sk.ingest sk ~host:"web01" (shard ~build:"rev1" ~g:false));
  Alcotest.(check (list string)) "same revision keeps its table" [ "f00" ]
    (fingerprints sk);
  ignore (Sk.ingest sk ~host:"web01" (shard ~build:"rev2" ~g:false));
  Alcotest.(check (list string)) "a new revision drops the old table" []
    (fingerprints sk);
  let merged =
    Merge.merge
      ~opts:{ Merge.default_options with Merge.expect_build_id = Some "rev2" }
      (Sk.to_shards sk)
  in
  Alcotest.(check int) "the merged rev2 profile has no rev1 table" 0
    (List.length merged.Fdata.fingerprints)

(* The sketch against [Oracle.Sketch], the hashtable sketch it replaced,
   on random tapes: repeated hosts (supersession), torn shards, malformed
   lines, duplicate keys within a shard, fingerprint tables across
   revisions, counts near [Int64.max_int], top-K from 1 to 16 and budgets
   small enough to evict every few shards.  Every observable value must
   agree after every ingest. *)
let gen_sketch_tape =
  let open QCheck.Gen in
  let func = map (Printf.sprintf "f%02d") (int_range 0 11) in
  let count =
    frequency
      [
        (8, map Int64.of_int (int_range 0 500));
        (1, map (fun d -> Int64.sub Int64.max_int (Int64.of_int d)) (int_range 0 2));
      ]
  in
  let record =
    frequency
      [
        ( 5,
          map
            (fun ((ff, fo), (tf, to_), (c, m)) ->
              Printf.sprintf "B %s %d %s %d %Ld %Ld" ff fo tf to_ c m)
            (triple (pair func (int_range 0 5)) (pair func (int_range 0 5))
               (pair count count)) );
        ( 2,
          map
            (fun ((f, s), l, c) -> Printf.sprintf "F %s %d %d %Ld" f s (s + l) c)
            (triple (pair func (int_range 0 5)) (int_range 0 3) count) );
        ( 2,
          map (fun ((f, o), c) -> Printf.sprintf "S %s %d %Ld" f o c)
            (pair (pair func (int_range 0 5)) count) );
        (1, return "B f00 zero f01 4 1 0");
      ]
  in
  let shard host =
    map
      (fun ((mode, build), (fps, ts), lines) ->
        String.concat "\n"
          ([ "mode " ^ mode; "H host " ^ host; Printf.sprintf "H timestamp %d" ts ]
          @ (if build = "" then [] else [ "H build-id " ^ build ])
          @ List.map (Printf.sprintf "G %s 16 abcd 1234 -") fps
          @ lines)
        ^ "\n")
      (triple
         (pair (oneofl [ "lbr"; "lbr"; "sample" ]) (oneofl [ "rev1"; "rev2"; "" ]))
         (pair (list_size (int_range 0 2) func) (int_range 1 9_999))
         (list_size (int_range 0 30) record))
  in
  let torn host = return (Printf.sprintf "mode lbr\nH host %s\nB f00 0 f0" host) in
  let arrival =
    oneofl [ "web01"; "web02"; "web03"; "web04"; "db01" ] >>= fun host ->
    map (fun text -> (host, text)) (frequency [ (8, shard host); (1, torn host) ])
  in
  triple (int_range 1 16) (int_range 200 4_000) (list_size (int_range 1 25) arrival)

let prop_sketch_oracle =
  QCheck.Test.make ~name:"sketch == hashtable sketch oracle" ~count:500
    (QCheck.make
       ~print:(fun (topk, budget, tape) ->
         Printf.sprintf "topk %d budget %d\n%s" topk budget
           (String.concat "----\n"
              (List.map (fun (h, x) -> Printf.sprintf "[%s]\n%s" h x) tape)))
       gen_sketch_tape)
    (fun (topk, budget, tape) ->
      let obs = Obs.create () and oobs = Obs.create () in
      let sk = Sk.create ~obs ~topk ~budget ()
      and o = Oracle.Sketch.create ~obs:oobs ~topk ~budget () in
      let shards to_shards =
        List.map
          (fun (sh : Merge.loaded) ->
            (sh.Merge.sh_name, Fdata.to_string sh.Merge.sh_prof))
          to_shards
      in
      List.for_all
        (fun (host, text) ->
          let ig = Sk.ingest sk ~host text and oig = Oracle.Sketch.ingest o ~host text in
          (ig.Sk.ig_records, ig.Sk.ig_warnings, ig.Sk.ig_skipped)
          = Oracle.Sketch.(oig.ig_records, oig.ig_warnings, oig.ig_skipped)
          && Sk.occupancy sk = Oracle.Sketch.occupancy o
          && Sk.peak sk = Oracle.Sketch.peak o
          && Sk.evictions sk = Oracle.Sketch.evictions o
          && Sk.evicted_events sk = Oracle.Sketch.evicted_events o
          && Sk.malformed sk = Oracle.Sketch.malformed o
          && Sk.funcs sk = Oracle.Sketch.funcs o
          && Sk.hosts sk = Oracle.Sketch.hosts o
          && shards (Sk.to_shards sk) = shards (Oracle.Sketch.to_shards o)
          && Json.to_string (Bolt_obs.Metrics.to_json obs.Obs.metrics)
             = Json.to_string (Bolt_obs.Metrics.to_json oobs.Obs.metrics))
        tape)

(* Live memory, not the cost model: the words the sketch actually
   reaches after a fleet tape under a tight budget. *)
let test_sketch_live_memory () =
  let budget = 256 * 1024 in
  let sk = Sk.create ~topk:64 ~budget () in
  List.iter
    (fun (_, host, text) -> ignore (Sk.ingest sk ~host text))
    (FS.scale_tape
       { FS.default_scale with FS.sc_hosts = 200; sc_funcs = 1_500; sc_lines = 500 });
  let live = Obj.reachable_words (Obj.repr sk) * (Sys.word_size / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "live %d bytes <= 5 x budget %d" live budget)
    true
    (live <= 5 * budget)

(* ------------------------------------------------------------------ *)
(* Batch merge over parsed shards == streaming merge over their text  *)

let small_scale =
  {
    FS.default_scale with
    FS.sc_hosts = 16;
    sc_funcs = 100;
    sc_lines = 200;
    sc_wave = 4;
  }

let test_merge_feeders_agree () =
  let texts =
    List.map (fun (_, h, x) -> (h, x)) (FS.scale_tape small_scale)
  in
  let parsed texts =
    List.map
      (fun (name, text) -> Merge.shard_of_profile ~name (fst (Fdata.parse text)))
      texts
  in
  (* arrival order of the shard list must not matter either *)
  Alcotest.(check string) "merge over reversed input == stream"
    (Fdata.to_string (Merge.merge_stream texts))
    (Fdata.to_string (Merge.merge (parsed (List.rev texts))));
  (* parity holds under the full option set: weights, decay, pinned id *)
  let opts =
    {
      Merge.weights = [ ("mh00003.dc1", 3.0) ];
      decay = Some 1e-6;
      expect_build_id = Some FS.scale_build_id;
    }
  in
  Alcotest.(check string) "merge == stream under weights+decay+id"
    (Fdata.to_string (Merge.merge_stream ~opts texts))
    (Fdata.to_string (Merge.merge ~opts (parsed texts)))

(* ------------------------------------------------------------------ *)
(* Trigger policy on a scripted tape                                  *)

let tape_of_scale sc =
  List.map
    (fun (t, h, x) -> { S.ev_time = t; ev_host = h; ev_text = x })
    (FS.scale_tape sc)

let svc_config trigger =
  { S.default_config with S.c_trigger = trigger; c_topk = 512 }

let test_trigger_quality () =
  let sc = { small_scale with FS.sc_hosts = 12; sc_wave = 4 } in
  let trigger =
    {
      S.default_trigger with
      S.tr_min_hosts = 8;
      tr_min_coverage_pct = 1.0;
      tr_max_staleness_pct = 60.0;
    }
  in
  let svc =
    S.create ~config:(svc_config trigger)
      ~expect_build_id:FS.scale_build_id ~start_time:FS.base_timestamp ()
  in
  let reports = S.run svc (tape_of_scale sc) in
  Alcotest.(check int) "one step per wave" 3 (List.length reports);
  (* 4 hosts after wave 0 < min_hosts; 8 after wave 1 fire the trigger *)
  Alcotest.(check (option int)) "trigger latency" (Some 2)
    (S.first_trigger_step svc);
  match S.reopts svc with
  | r :: _ -> Alcotest.(check string) "reason" "quality" r.S.ro_reason
  | [] -> Alcotest.fail "no trigger fired"

let test_trigger_min_hosts_gate () =
  let trigger =
    { S.default_trigger with S.tr_min_hosts = 100; tr_min_coverage_pct = 1.0 }
  in
  let svc =
    S.create ~config:(svc_config trigger)
      ~expect_build_id:FS.scale_build_id ~start_time:FS.base_timestamp ()
  in
  ignore (S.run svc (tape_of_scale small_scale));
  Alcotest.(check (option int)) "too few hosts: no trigger" None
    (S.first_trigger_step svc);
  Alcotest.(check int) "no reopt recorded" 0 (List.length (S.reopts svc))

let test_trigger_max_interval () =
  (* quality can never pass (impossible coverage bar), but the
     max-staleness timer must still fire once a tick interval of
     logical time has passed with traffic arriving *)
  let trigger =
    {
      S.default_trigger with
      S.tr_min_hosts = 1;
      tr_min_coverage_pct = 1_000.0;
      tr_max_interval = FS.tick_interval;
    }
  in
  let svc =
    S.create ~config:(svc_config trigger)
      ~expect_build_id:FS.scale_build_id ~start_time:FS.base_timestamp ()
  in
  ignore (S.run svc (tape_of_scale small_scale));
  match S.reopts svc with
  | r :: _ -> Alcotest.(check string) "reason" "max_interval" r.S.ro_reason
  | [] -> Alcotest.fail "max-interval timer never fired"

(* A torn shard (its only record cut mid-line) salvages nothing, so
   [Merge.load] would skip it; the sketch applies the same rule instead
   of letting it supersede, and wipe, the host's last good shard. *)
let torn_shard = "mode lbr\nH host web01\nH build-id rev9\nH timestamp 5000\nB f00 0 f0"

let test_sketch_torn_shard () =
  let sk = Sk.create ~topk:64 ~budget:(1 lsl 20) () in
  ignore (Sk.ingest sk ~host:"web01" (ramp_shard ~build:"rev1" ~ts:100 2));
  let state () =
    String.concat ""
      (List.map
         (fun (sh : Merge.loaded) -> Fdata.to_string sh.Merge.sh_prof)
         (Sk.to_shards sk))
  in
  let before = state () and occupancy = Sk.occupancy sk in
  let ig = Sk.ingest sk ~host:"web01" torn_shard in
  Alcotest.(check bool) "torn shard skipped" true ig.Sk.ig_skipped;
  Alcotest.(check int) "its malformed line counted" 1 (Sk.malformed sk);
  Alcotest.(check int) "host keeps its functions" 2 (Sk.funcs sk);
  Alcotest.(check int) "occupancy unchanged" occupancy (Sk.occupancy sk);
  Alcotest.(check string) "entries and header unchanged" before (state ());
  ignore (Sk.ingest sk ~host:"web02" torn_shard);
  Alcotest.(check int) "a torn first shard adds no host" 1 (Sk.hosts sk);
  (* nor is it a fresh host report: the max-interval timer, which fires
     on any fresh report once the interval has passed, stays quiet *)
  let svc =
    S.create
      ~config:
        (svc_config
           {
             S.default_trigger with
             S.tr_min_hosts = 1;
             tr_min_coverage_pct = 1_000.0;
             tr_max_interval = 100;
           })
      ~start_time:0 ()
  in
  let arrive time text =
    S.step svc [ { S.ev_time = time; ev_host = "web01"; ev_text = text } ]
  in
  let first = arrive 1_000 (ramp_shard ~build:"rev1" ~ts:100 2) in
  Alcotest.(check (option string)) "good shard: timer fires"
    (Some "max_interval") first.S.sr_trigger;
  let second = arrive 2_000 torn_shard in
  Alcotest.(check (option string)) "torn shard: no trigger" None
    second.S.sr_trigger

(* The manifest's line count comes from the scan that ingests each
   shard: it must equal the newlines [count_lines] finds, whatever the
   shard looks like. *)
let test_lines_from_scan () =
  let shards =
    [
      ("web01", "mode lbr\nH host web01\nB f00 0 f00 8 5 0");
      ("web02", "mode lbr\r\nH host web02\r\nB f01 0 f01 8 7 0\r\n");
      ("web03", "");
      ("web04", torn_shard);
      ("web05", "mode lbr\nB f02 0 f02 8 3 0\nnot a record\nB f02 x\n\n\nB f03 0 f03 4 1 0\n");
    ]
  in
  let svc = S.create ~config:(svc_config S.default_trigger) ~start_time:0 () in
  ignore
    (S.step svc
       (List.mapi
          (fun i (host, text) -> { S.ev_time = 1_000 + i; ev_host = host; ev_text = text })
          shards));
  let counted = List.fold_left (fun a (_, text) -> a + S.count_lines text) 0 shards in
  Alcotest.(check int) "newlines on the tape" 16 counted;
  match S.manifest_section svc with
  | _, Json.Obj fields ->
      Alcotest.(check (option int)) "manifest lines" (Some counted)
        (match List.assoc_opt "lines" fields with Some (Json.Int n) -> Some n | _ -> None)
  | _ -> Alcotest.fail "service section is not an object"

(* ------------------------------------------------------------------ *)
(* Tape and spool parsing                                             *)

let test_load_tape () =
  let shard = in_temp "svc_shard.fdata" in
  write_file shard (ramp_shard 3);
  let tape = in_temp "svc_tape.txt" in
  write_file tape
    (String.concat "\n"
       [
         "# arrival script";
         Printf.sprintf "1000  web01   %s" shard;
         Printf.sprintf "nonsense web02 %s" shard;
         "1010 web03 /nonexistent/shard.fdata";
         "not-enough-fields";
         "";
       ]);
  let events, skips = S.load_tape tape in
  Alcotest.(check int) "one good event" 1 (List.length events);
  let ev = List.hd events in
  Alcotest.(check int) "time" 1_000 ev.S.ev_time;
  Alcotest.(check string) "host" "web01" ev.S.ev_host;
  Alcotest.(check int) "bad time + missing shard + short line skipped" 3
    (List.length skips)

let test_spool_scan () =
  let dir = in_temp "svc_spool" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  write_file (Filename.concat dir "a.fdata")
    (ramp_shard ~host:"web07" ~ts:4_242 3);
  (* no header: host falls back to the file name, time to default *)
  write_file (Filename.concat dir "b.fdata") "mode lbr\nB f 0 f 4 1 0\n";
  let entries, skips = S.spool_scan ~default_time:99 dir in
  Alcotest.(check int) "no skips" 0 (List.length skips);
  match List.map snd entries with
  | [ a; b ] ->
      Alcotest.(check string) "host from header" "web07" a.S.ev_host;
      Alcotest.(check int) "time from header" 4_242 a.S.ev_time;
      Alcotest.(check string) "host from file name" "b.fdata" b.S.ev_host;
      Alcotest.(check int) "default time" 99 b.S.ev_time
  | l -> Alcotest.failf "expected 2 spool entries, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Injected clock: two identical runs render identical manifests      *)

let test_manifest_reproducible () =
  let run () =
    let obs = Obs.create ~clock:(fun () -> 123.0) ~name:"boltd" () in
    let svc =
      S.create ~obs
        ~config:
          (svc_config
             { S.default_trigger with S.tr_min_hosts = 4; tr_min_coverage_pct = 1.0 })
        ~expect_build_id:FS.scale_build_id ~start_time:FS.base_timestamp ()
    in
    ignore (S.run svc (tape_of_scale small_scale));
    let m =
      Manifest.make ~tool:"boltd" ~argv:[ "boltd"; "--tape"; "t" ]
        ~sections:
          [ S.manifest_section svc; Monitor.manifest_section (S.monitor svc) ]
        obs
    in
    Json.to_string m
  in
  Alcotest.(check string) "same tape + pinned clock => same manifest bytes"
    (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Tracking only: with no target, the modal revision is the expected one *)

let test_tracking_only_staleness () =
  let svc =
    S.create
      ~config:(svc_config { S.default_trigger with S.tr_min_hosts = 100 })
      ~start_time:0 ()
  in
  let arrival host build =
    { S.ev_time = 1_000; ev_host = host; ev_text = ramp_shard ~host ~build 4 }
  in
  let reports =
    S.run svc
      [
        arrival "web01" "rev1";
        arrival "web02" "rev1";
        arrival "web03" "rev1";
        arrival "web04" "rev2";
      ]
  in
  (match reports with
  | [ { S.sr_quality = Some q; _ } ] ->
      Alcotest.(check string) "judged against the modal revision" "rev1"
        q.Quality.q_expected_build_id;
      Alcotest.(check (float 1e-9)) "the minority host's share of events" 25.0
        q.Quality.q_staleness_pct
  | _ -> Alcotest.fail "expected one assessed step");
  Alcotest.(check (list string)) "stale_build alerts on the minority host"
    [ "web04" ]
    (List.filter_map
       (fun (a : Monitor.alert) ->
         if a.Monitor.al_kind = "stale_build" then Some a.Monitor.al_host
         else None)
       (Monitor.alerts (S.monitor svc)))

(* ------------------------------------------------------------------ *)
(* One status renderer: boltd's exit block opens with --status's lines *)

let test_pp_is_status () =
  let obs = Obs.create ~clock:(fun () -> 123.0) ~name:"boltd" () in
  let svc =
    S.create ~obs
      ~config:
        (svc_config
           { S.default_trigger with S.tr_min_hosts = 4; tr_min_coverage_pct = 1.0 })
      ~start_time:FS.base_timestamp ()
  in
  let tape = tape_of_scale small_scale in
  let last = List.fold_left (fun a (e : S.event) -> max a e.S.ev_time) 0 tape in
  (* a torn shard puts a malformed line into the ingest counts *)
  ignore
    (S.run svc
       (tape @ [ { S.ev_time = last; ev_host = "web99"; ev_text = torn_shard } ]));
  let path = in_temp "svc_status.json" in
  Manifest.save path
    (Manifest.make ~tool:"boltd"
       ~sections:[ S.manifest_section svc; Monitor.manifest_section (S.monitor svc) ]
       obs);
  let lines s = String.split_on_char '\n' s |> List.filter (( <> ) "") in
  let status =
    Fmt.str "%a" S.pp_status_json (Manifest.load path)
    |> lines
    |> List.filter (fun l -> not (String.starts_with ~prefix:"  fleet health" l))
  in
  Sys.remove path;
  let live = lines (Fmt.str "%a" S.pp svc) in
  Alcotest.(check bool) "status has its trigger and malformed lines" true
    (List.exists (String.starts_with ~prefix:"  trigger        quality@") status
    && List.exists (fun l -> String.ends_with ~suffix:", 1 malformed" l) status);
  Alcotest.(check (list string)) "pp opens with the status lines" status
    (List.filteri (fun i _ -> i < List.length status) live);
  Alcotest.(check bool) "then the fleet health table" true
    (String.starts_with ~prefix:"fleet health:" (List.nth live (List.length status)))

(* ------------------------------------------------------------------ *)
(* E2E: a 1000-host tape with drifting revisions through the daemon   *)

(* Replicate a small simulated fleet (fresh + stale revisions, skewed
   per-host traffic) out to 1000 hosts arriving in 8 waves, and drive
   it through the full service loop with a real target binary. *)
let thousand_host_tape (r : FS.result) =
  let base = Array.of_list r.FS.fr_shards in
  List.init 1_000 (fun i ->
      let _, prof = base.(i mod Array.length base) in
      let name = Printf.sprintf "h%04d.dc1" i in
      let header =
        Option.map
          (fun h -> { h with Fdata.hd_host = name })
          prof.Fdata.header
      in
      {
        S.ev_time = FS.base_timestamp + (i / 125 * FS.tick_interval);
        ev_host = name;
        ev_text = Fdata.to_string { prof with Fdata.header };
      })

let e2e_fleet_cfg =
  {
    FS.default_config with
    FS.fc_hosts = 4;
    fc_stale = 1;
    fc_requests = 600;
    fc_params =
      {
        FS.default_config.FS.fc_params with
        Bolt_workloads.Gen.funcs = 120;
        modules = 4;
      };
  }

let e2e_service_cfg ~jobs =
  {
    S.default_config with
    S.c_jobs = jobs;
    c_trigger =
      {
        S.default_trigger with
        S.tr_min_hosts = 600;
        tr_min_coverage_pct = 5.0;
        tr_max_staleness_pct = 60.0;
        tr_min_recovery_rate = 0.0;
      };
  }

let test_e2e_thousand_hosts () =
  let r = FS.run e2e_fleet_cfg in
  let tape = thousand_host_tape r in
  let drive ~jobs tape =
    let svc =
      S.create ~config:(e2e_service_cfg ~jobs) ~target:r.FS.fr_build
        ~start_time:FS.base_timestamp ()
    in
    ignore (S.run svc tape);
    svc
  in
  let svc = drive ~jobs:1 tape in
  (* the drifting fleet fired at least one re-optimization *)
  let reopts = S.reopts svc in
  Alcotest.(check bool) "a re-optimization fired" true (reopts <> []);
  List.iter
    (fun ro ->
      Alcotest.(check bool) "rewrite changed the build-id" true
        (ro.S.ro_build_id_before <> ro.S.ro_build_id_after))
    reopts;
  (* memory bound held across a 1000-host ingest *)
  let sk = S.sketch svc in
  Alcotest.(check bool) "sketch peak within budget" true
    (Sk.peak sk <= Sk.budget sk);
  (* the re-optimized binary beats the pre-trigger build on fleet
     traffic (taken branches, the layout objective) *)
  let taken b =
    (P.run b ~input:r.FS.fr_fleet_input).Bolt_sim.Machine.counters
      .Bolt_sim.Machine.taken_branches
  in
  let before = taken r.FS.fr_build in
  let after = taken (Option.get (S.target svc)) in
  Fmt.epr "service e2e: taken branches %d -> %d@." before after;
  Alcotest.(check bool) "optimized build takes fewer branches" true
    (after < before);
  (* determinism: a reversed tape driven at -j4 lands on byte-identical
     state — final binary, trigger profile, service + health sections.
     (Trace timings are excluded by construction: they are measured.) *)
  let svc' = drive ~jobs:4 (List.rev tape) in
  let exe_bytes s =
    Bolt_obj.Objfile.to_string (Option.get (S.target s)).P.exe
  in
  Alcotest.(check string) "final binary bytes identical" (exe_bytes svc)
    (exe_bytes svc');
  let reopt_profiles s =
    String.concat "---"
      (List.map (fun ro -> Fdata.to_string ro.S.ro_profile) (S.reopts s))
  in
  Alcotest.(check string) "trigger profiles identical" (reopt_profiles svc)
    (reopt_profiles svc');
  let state s =
    Json.to_string
      (Json.Obj [ S.manifest_section s; Monitor.manifest_section (S.monitor s) ])
  in
  Alcotest.(check string) "service + health state identical" (state svc)
    (state svc')

let suite =
  [
    Alcotest.test_case "sketch: top-K eviction order and accounting" `Quick
      test_sketch_topk;
    Alcotest.test_case "sketch: newest shard supersedes, no eviction" `Quick
      test_sketch_latest_wins;
    Alcotest.test_case "sketch: global byte budget holds under pressure" `Quick
      test_sketch_budget;
    Alcotest.test_case "sketch: torn shard leaves the host unchanged" `Quick
      test_sketch_torn_shard;
    Alcotest.test_case "manifest lines: counted by the scan" `Quick
      test_lines_from_scan;
    Alcotest.test_case "sketch: a new revision drops the old fingerprints"
      `Quick test_sketch_fingerprints_follow_revision;
    Alcotest.test_case "sketch: live memory within 5x budget" `Quick
      test_sketch_live_memory;
    QCheck_alcotest.to_alcotest prop_sketch_oracle;
    Alcotest.test_case "batch merge == streaming merge (bytes)" `Quick
      test_merge_feeders_agree;
    Alcotest.test_case "trigger: quality gate after min-hosts" `Quick
      test_trigger_quality;
    Alcotest.test_case "trigger: min-hosts gate blocks" `Quick
      test_trigger_min_hosts_gate;
    Alcotest.test_case "trigger: max-interval timer" `Quick
      test_trigger_max_interval;
    Alcotest.test_case "tape: parse + skip diagnostics" `Quick test_load_tape;
    Alcotest.test_case "spool: header-driven host/time" `Quick test_spool_scan;
    Alcotest.test_case "tracking only: modal revision judges staleness" `Quick
      test_tracking_only_staleness;
    Alcotest.test_case "pp opens with the --status lines" `Quick
      test_pp_is_status;
    Alcotest.test_case "manifest: injected clock reproducibility" `Quick
      test_manifest_reproducible;
    Alcotest.test_case "e2e: 1000-host tape triggers a winning re-opt" `Slow
      test_e2e_thousand_hosts;
  ]
