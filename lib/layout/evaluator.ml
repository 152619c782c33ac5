(* Offline layout evaluator: score a layout and estimate its hot
   working set without running anything.

   The ExtTSP score comes straight from the objective; the i-cache-line
   and i-TLB-page estimates count the distinct lines (pages) touched by
   blocks that executed at least once — what a cache big enough never to
   evict would miss on.  Addresses only grow along the order, so one
   linear pass counts them: a line is new unless it is the last one
   counted.  That makes `bsim`-free layout comparisons possible: a
   layout that packs the hot blocks into fewer lines and pages is better
   before any simulation. *)

type result = {
  ev_score : float;       (* ExtTSP objective of the layout *)
  ev_hot_bytes : int;     (* bytes in blocks with a nonzero count *)
  ev_icache_lines : int;  (* distinct icache lines those blocks span *)
  ev_itlb_pages : int;    (* distinct ITLB pages those blocks span *)
}

let zero = { ev_score = 0.0; ev_hot_bytes = 0; ev_icache_lines = 0; ev_itlb_pages = 0 }

let add a b =
  {
    ev_score = a.ev_score +. b.ev_score;
    ev_hot_bytes = a.ev_hot_bytes + b.ev_hot_bytes;
    ev_icache_lines = a.ev_icache_lines + b.ev_icache_lines;
    ev_itlb_pages = a.ev_itlb_pages + b.ev_itlb_pages;
  }

let evaluate ?(line = 64) ?(page = 4096) (cfg : Cfg.t) (order : int array) =
  let addr = ref 0 and hot_bytes = ref 0 in
  let lines = ref 0 and last_line = ref (-1) in
  let pages = ref 0 and last_page = ref (-1) in
  (* count the units of [unit] bytes that [addr, addr + sz) touches and
     the previous hot block did not *)
  let touch unit n last sz =
    let first = !addr / unit and l = (!addr + sz - 1) / unit in
    n := !n + l - first + (if first = !last then 0 else 1);
    last := l
  in
  Array.iter
    (fun b ->
      let sz = Cfg.size cfg b in
      if Cfg.count cfg b > 0 && sz > 0 then begin
        hot_bytes := !hot_bytes + sz;
        touch line lines last_line sz;
        touch page pages last_page sz
      end;
      addr := !addr + sz)
    order;
  {
    ev_score = Exttsp.score cfg order;
    ev_hot_bytes = !hot_bytes;
    ev_icache_lines = !lines;
    ev_itlb_pages = !pages;
  }
