(* Simulated data-center fleet: N hosts serving skewed request streams,
   some still running yesterday's binary (§7's deployment reality —
   aggregated profiles span hosts AND revisions).

   Each host gets its own request tape: same token-stream generator as
   the compiler workloads, but with a per-host seed and a per-host mix so
   different dispatch residues run hot on different hosts.  A configured
   number of hosts run a *stale* build — same sources modulo a
   revision-style perturbation (edited bodies, a few renamed functions,
   helpers the new revision deleted), so shard records drift in every
   way [Stale_match] and [match_profile] are built to tolerate.  Stale hosts also carry older
   timestamps, so age-decay downweights them.

   The "fleet workload" used for evaluation is the concatenation of every
   host's tape: the merged profile should serve it better than any single
   host's shard, which is the subsystem's end-to-end acceptance check. *)

module Fdata = Bolt_profile.Fdata
module Gen = Bolt_workloads.Gen
module Workloads = Bolt_workloads.Workloads
module Machine = Bolt_sim.Machine
module P = Bolt_pipeline.Pipeline
module Obs = Bolt_obs.Obs

type host = {
  h_name : string;
  h_stale : bool; (* running the previous binary revision *)
  h_mix : int; (* percentage of requests biased into this host's windows *)
  h_window : int; (* start of the t-residue window this host heats *)
  h_window2 : int; (* start of its t2-residue window (independent family) *)
  h_seed : int;
  h_timestamp : int; (* when this host's shard was collected *)
}

type config = {
  fc_hosts : int;
  fc_stale : int; (* how many hosts run the stale revision *)
  fc_requests : int; (* tokens per host tape *)
  fc_seed : int;
  fc_params : Gen.params; (* base service shape; forced input-driven *)
  fc_sampling : Machine.sample_cfg;
}

(* Small-but-realistic defaults: an hhvm-shaped service cut down to test
   scale, sampled densely enough that every host yields a useful shard. *)
let default_config =
  {
    fc_hosts = 8;
    fc_stale = 1;
    fc_requests = 3_000;
    fc_seed = 4242;
    fc_params =
      {
        Workloads.hhvm_like with
        Gen.funcs = 320;
        modules = 8;
        input_driven = true;
        dispatch_thresholds = 16;
      };
    fc_sampling = { P.default_sampling with Machine.period = 301 };
  }

type result = {
  fr_build : P.build; (* the current revision (merge target) *)
  fr_stale_build : P.build; (* the previous revision some hosts still run *)
  fr_hosts : host list;
  fr_shards : (host * Fdata.t) list; (* provenance-stamped, one per host *)
  fr_fleet_input : int array; (* all host tapes concatenated: eval traffic *)
}

(* The fleet epoch: shard timestamps count seconds from here.  Stale
   shards predate the current build by a day. *)
let base_timestamp = 1_000_000
let stale_age = 86_400

let hosts_of_config c =
  List.init c.fc_hosts (fun i ->
      (* spread the mix across hosts so each skews different residues hot;
         stale hosts are the first [fc_stale] for determinism *)
      let stale = i < c.fc_stale in
      {
        h_name = Printf.sprintf "host%02d.dc1" i;
        h_stale = stale;
        h_mix = 85 + i * 10 / max 1 (c.fc_hosts - 1);
        h_window = i * 80 / max 1 c.fc_hosts;
        (* the t2 windows are the same set rotated by half the fleet, so a
           host median in one family is extreme in the other: no single
           host agrees with the fleet-majority branch direction
           everywhere, which is why the merged profile wins *)
        h_window2 =
          (i + (c.fc_hosts / 2)) mod max 1 c.fc_hosts * 80 / max 1 c.fc_hosts;
        h_seed = (c.fc_seed * 1_000) + i;
        h_timestamp =
          (if stale then base_timestamp - stale_age else base_timestamp + i);
      })

(* A host's request tape.  Like [Workloads.token_input], but the biased
   tokens land in host-specific residue windows: t = tok%100 in
   [h_window, h_window+12) and t2 = tok/100%100 in [h_window2,
   h_window2+12).  Each host therefore drives the service's
   threshold-dispatch branches in its own direction, so no single host's
   shard predicts the fleet-wide branch biases — the skew that makes
   aggregation matter. *)
let host_tape (h : host) ~n =
  let r = Bolt_workloads.Rng.create h.h_seed in
  Array.init n (fun _ ->
      let v = 1 + Bolt_workloads.Rng.int r 1_000_000 in
      if Bolt_workloads.Rng.bool r h.h_mix 100 then
        let t = (h.h_window + Bolt_workloads.Rng.int r 12) mod 100 in
        let t2 = (h.h_window2 + Bolt_workloads.Rng.int r 12) mod 100 in
        10_000 + (v / 10_000 * 10_000) + (t2 * 100) + t
      else v)

(* A "previous revision": the same service one commit back, with real
   drift on every axis the stale matcher must survive — every function
   body lightly edited (offsets shift, CFG shape survives), every 9th
   function under a different name (call sites included), and a few
   helpers that only the old revision had (their records have no home in
   the new binary and must drop cleanly). *)
let stale_params (p : Gen.params) =
  { p with Gen.body_pad = 2; rename_every = 9; extra_funcs = 4 }

let compile_params ?obs (p : Gen.params) : P.build =
  let w = Gen.gen p in
  P.compile ?obs ~externals:w.Gen.externals ~extra_objs:w.Gen.extra_objs w.Gen.sources

let run ?obs (c : config) : result =
  let obs = match obs with Some o -> o | None -> Obs.null () in
  Obs.span obs "fleet.sim" (fun () ->
      let params = { c.fc_params with Gen.input_driven = true } in
      let build = compile_params ~obs params in
      let stale_build = compile_params ~obs (stale_params params) in
      let hosts = hosts_of_config c in
      let tapes = List.map (fun h -> (h, host_tape h ~n:c.fc_requests)) hosts in
      let shards =
        List.map
          (fun (h, tape) ->
            let b = if h.h_stale then stale_build else build in
            let prof, _ =
              P.profile_shard ~obs ~sampling:c.fc_sampling ~host:h.h_name
                ~timestamp:h.h_timestamp b ~input:tape
            in
            Obs.incr obs "fleet.sim.hosts";
            if h.h_stale then Obs.incr obs "fleet.sim.stale_hosts";
            (h, prof))
          tapes
      in
      {
        fr_build = build;
        fr_stale_build = stale_build;
        fr_hosts = hosts;
        fr_shards = shards;
        fr_fleet_input = Array.concat (List.map snd tapes);
      })

(* Shards as merger input, named by host. *)
let loaded_shards (r : result) : Merge.loaded list =
  List.map
    (fun ((h : host), prof) -> Merge.shard_of_profile ~name:h.h_name prof)
    r.fr_shards

(* ---- rollout simulation ---- *)

(* One aggregation round during a rollout: which revision each host runs
   at this tick, and the shard it contributed. *)
type tick = {
  tk_index : int;
  tk_hosts : host list; (* h_stale/h_timestamp reflect this tick's state *)
  tk_shards : (host * Fdata.t) list;
}

(* Wall-clock seconds between aggregation rounds. *)
let tick_interval = 3_600

(* Simulate a deployment rolling forward: starting from [run]'s state
   (the configured [fc_stale] hosts on yesterday's revision), one stale
   host upgrades to the current build per tick, until the fleet
   converges.  An upgraded host re-collects its shard against the new
   binary with a fresh timestamp; hosts that have not changed keep
   contributing their original shard.  This is the input the fleet
   health monitor folds into per-host time series: tick 0 shows every
   configured stale host, the last tick (given enough ticks) none. *)
let rollout ?obs ?(ticks = 3) (c : config) : result * tick list =
  let obs = match obs with Some o -> o | None -> Obs.null () in
  let r = run ~obs c in
  let restamp (p : Fdata.t) timestamp =
    let h = Option.value ~default:Fdata.no_header p.Fdata.header in
    { p with Fdata.header = Some { h with Fdata.hd_timestamp = timestamp } }
  in
  (* an upgraded host's fresh-revision shard, profiled once and restamped
     per tick (its tape is a pure function of the host record) *)
  let fresh_cache : (string, Fdata.t) Hashtbl.t = Hashtbl.create 8 in
  let fresh_shard (h : host) ~timestamp =
    let prof =
      match Hashtbl.find_opt fresh_cache h.h_name with
      | Some p -> p
      | None ->
          let tape = host_tape h ~n:c.fc_requests in
          let p, _ =
            P.profile_shard ~obs ~sampling:c.fc_sampling ~host:h.h_name
              ~timestamp r.fr_build ~input:tape
          in
          Hashtbl.add fresh_cache h.h_name p;
          p
    in
    restamp prof timestamp
  in
  let tick_of t =
    Obs.span obs "fleet.rollout.tick" (fun () ->
        let rows =
          List.mapi
            (fun i ((h : host), orig_shard) ->
              (* stale hosts occupy indices [0, fc_stale); the rollout
                 upgrades one per tick from the highest stale index down,
                 so after t ticks indices [fc_stale - t, fc_stale) run
                 the current build *)
              let still_stale = h.h_stale && i < c.fc_stale - t in
              if still_stale then ({ h with h_stale = true }, orig_shard)
              else if h.h_stale then begin
                (* upgraded during the rollout: new build, new shard *)
                let timestamp = base_timestamp + (t * tick_interval) in
                Obs.incr obs "fleet.rollout.upgrades";
                ( { h with h_stale = false; h_timestamp = timestamp },
                  fresh_shard h ~timestamp )
              end
              else (h, orig_shard))
            r.fr_shards
        in
        {
          tk_index = t;
          tk_hosts = List.map fst rows;
          tk_shards = rows;
        })
  in
  (r, List.init ticks tick_of)

let tick_loaded_shards (t : tick) : Merge.loaded list =
  List.map
    (fun ((h : host), prof) -> Merge.shard_of_profile ~name:h.h_name prof)
    t.tk_shards

(* ---- mega-scale synthetic tape ----

   [run]/[rollout] compile and execute a real service per host, which
   tops out around tens of hosts.  The continuous-optimization service
   and its bench need the data-center shape — thousands of hosts,
   millions of fdata lines — where only the *profiles* have to be real.
   [scale_tape] synthesizes that: one fdata shard per host over a shared
   synthetic function universe, zipf-skewed with a per-host rotation of
   the hot set (so no host covers the fleet), a configurable fraction of
   hosts still reporting the previous revision with day-old timestamps,
   and arrival times grouped into waves so the tape replays as a
   sequence of service ticks.  Entirely deterministic from [sc_seed]. *)

type scale = {
  sc_hosts : int;
  sc_funcs : int; (* size of the synthetic function universe *)
  sc_lines : int; (* B/F/S record lines per host shard *)
  sc_stale_every : int; (* every Nth host reports the old revision; 0 = none *)
  sc_wave : int; (* hosts arriving per tick *)
  sc_seed : int;
}

let default_scale =
  {
    sc_hosts = 1_000;
    sc_funcs = 4_000;
    sc_lines = 500;
    sc_stale_every = 7;
    sc_wave = 128;
    sc_seed = 991;
  }

(* Synthetic revision stamps for the tape's current/previous builds. *)
let scale_build_id = "feedc0de00000001"
let scale_stale_build_id = "feedc0de00000000"
let scale_fname i = Printf.sprintf "svc_%05d" i

(* (arrival time, host, fdata text) triples, sorted by arrival. *)
let scale_tape ?(start_time = base_timestamp) (s : scale) :
    (int * string * string) list =
  let module Rng = Bolt_workloads.Rng in
  List.init s.sc_hosts (fun i ->
      let rng = Rng.create ((s.sc_seed * 7_919) + i) in
      let stale =
        s.sc_stale_every > 0 && i mod s.sc_stale_every = s.sc_stale_every - 1
      in
      let host = Printf.sprintf "mh%05d.dc1" i in
      let tick = i / max 1 s.sc_wave in
      let time = start_time + (tick * tick_interval) in
      let b = Buffer.create (s.sc_lines * 32) in
      let line fmt =
        Printf.ksprintf
          (fun str ->
            Buffer.add_string b str;
            Buffer.add_char b '\n')
          fmt
      in
      line "mode lbr";
      line "H host %s" host;
      line "H build-id %s" (if stale then scale_stale_build_id else scale_build_id);
      line "H timestamp %d" (if stale then time - stale_age else time);
      line "H events %d" (s.sc_lines * 25);
      for _ = 1 to s.sc_lines do
        (* rotate the zipf hot set per host: host i's hottest functions
           start at index i, so fleet coverage needs many hosts *)
        let fi = (Rng.zipf rng s.sc_funcs + i) mod s.sc_funcs in
        let name = scale_fname fi in
        let off () = Rng.int rng 256 in
        let cnt () = Int64.of_int (1 + Rng.int rng 5_000) in
        let kind = Rng.int rng 100 in
        if kind < 80 then begin
          let c = cnt () in
          let to_f, to_o =
            if Rng.bool rng 1 8 then
              (scale_fname ((Rng.zipf rng s.sc_funcs + i) mod s.sc_funcs), 0)
            else (name, off ())
          in
          line "B %s %d %s %d %Ld %Ld" name (off ()) to_f to_o c
            (Int64.div c 8L)
        end
        else if kind < 92 then begin
          let st = off () in
          line "F %s %d %d %Ld" name st (st + Rng.int rng 32) (cnt ())
        end
        else line "S %s %d %Ld" name (off ()) (cnt ())
      done;
      (time, host, Buffer.contents b))
