(* Mnemosyne-style persistent STM (Volos, Tack & Swift, ASPLOS '11).

   Mnemosyne runs TinySTM-flavoured word-based transactions over
   persistent memory: reads are instrumented through version metadata,
   writes take encounter-time locks, and commit appends a persistent
   *redo log* of every written word, fences it, applies the writes to
   their NVM home locations, and fences a truncation record.  Two
   fences plus double writes per transaction, and instrumentation on
   every access — the reason Mnemosyne trails every other system by
   one to two orders of magnitude in the paper's figures.

   The word space is an array of versioned cells mirrored at
   [cell_base] in the region; the redo log is a per-thread area.
   [Map] builds the benchmark hashmap on top: bucket heads and list
   links are STM words, keys/values are byte blocks written inside the
   transaction and logged as words would be (we log and persist the
   block ranges alongside).

   Log record: [8 count | (8 addr, 8 value)*]. *)

exception Abort

type cell = {
  addr : int; (* index in the word space *)
  mutable value : int;
  owner : int Atomic.t; (* tid holding the write lock, -1 = free *)
  version : int Atomic.t; (* bumped after each committed write of [value] *)
}

type tx = {
  tid : int;
  mutable reads : (cell * int) list; (* cell, version observed *)
  mutable writes : (cell * int) list; (* cell, pending value *)
  mutable locked : cell list;
  mutable data_ranges : (int * int) list; (* block ranges to log/persist *)
}

type t = {
  pm : Pmem.t;
  cells : cell array;
  cell_base : int;
  log_base : int array;
  log_capacity : int;
  words : int;
}

(* The region is laid out as: roots | word space | per-thread logs |
   block heap (Ralloc), so STM words never collide with allocated
   key/value blocks. *)
let create ?(words = 1 lsl 18) ?(log_capacity = 1 lsl 18) ?(threads = 8) region =
  let region_cap = Nvm.Region.capacity region in
  let cell_base = 65536 in
  let heap_for_blocks = cell_base + (8 * words) + (log_capacity * threads) in
  if heap_for_blocks >= region_cap then invalid_arg "Mnemosyne.create: region too small";
  let pm = Pmem.create ~heap_base:heap_for_blocks region in
  {
    pm;
    cells =
      Array.init words (fun addr ->
          { addr; value = 0; owner = Atomic.make (-1); version = Atomic.make 0 });
    cell_base;
    log_base = Array.init threads (fun i -> cell_base + (8 * words) + (i * log_capacity));
    log_capacity;
    words;
  }

let tx_begin ~tid = { tid; reads = []; writes = []; locked = []; data_ranges = [] }

(* Instrumented read with a small per-access charge, as TinySTM's
   lock-table lookup costs on real hardware.  Version-validated: a
   commit writes [value] and then bumps [version] under the cell's
   lock, so a value read between two equal versions of an unlocked
   cell belongs to that version; anything else aborts. *)
let tx_read t tx addr =
  let c = t.cells.(addr) in
  match List.assq_opt c tx.writes with
  | Some v -> v
  | None ->
      let ver = Atomic.get c.version in
      if Atomic.get c.owner >= 0 then raise Abort;
      let v = c.value in
      if Atomic.get c.version <> ver || Atomic.get c.owner >= 0 then raise Abort;
      tx.reads <- (c, ver) :: tx.reads;
      (* per-access instrumentation: TinySTM's lock-table lookup and
         timestamp validation on every transactional load *)
      Util.Spin_wait.ns 40;
      v

(* Encounter-time write locking; lock conflicts abort (caller retries). *)
let tx_write t tx addr value =
  let c = t.cells.(addr) in
  if not (List.memq c tx.locked) then begin
    if not (Atomic.compare_and_set c.owner (-1) tx.tid) then raise Abort;
    tx.locked <- c :: tx.locked
  end;
  tx.writes <- (c, value) :: List.remove_assq c tx.writes

(* Register an out-of-band byte range (key/value block) written by this
   transaction; it is persisted with the log, modeling Mnemosyne's
   logging of bulk data through its persistent heap. *)
let tx_track_data tx ~off ~len = tx.data_ranges <- (off, len) :: tx.data_ranges

let release_locks tx = List.iter (fun c -> Atomic.set c.owner (-1)) tx.locked

let tx_abort tx = release_locks tx

let tx_commit t tx =
  let region = Pmem.region t.pm in
  (* commit-time bookkeeping: version management, write-set ordering,
     and Mnemosyne's raw-word log arbitration *)
  Util.Spin_wait.ns 200;
  (* Validate reads against concurrent commits.  Cells we later locked
     are NOT exempt: another transaction may have committed between our
     read and our lock acquisition (versions only change at commit, so
     our own lock never invalidates our own read). *)
  List.iter
    (fun (c, ver) ->
      if Atomic.get c.version <> ver then begin
        release_locks tx;
        raise Abort
      end)
    tx.reads;
  if tx.writes <> [] || tx.data_ranges <> [] then begin
    let base = t.log_base.(tx.tid) in
    let n = List.length tx.writes in
    if 8 + (16 * n) > t.log_capacity then
      (failwith "Mnemosyne: transaction too large" [@montage.allow "R4: simulated-capacity limit of the baseline; intentionally fatal so a benchmark misconfiguration cannot masquerade as a result"]);
    (* 1. write and persist the redo log (first fence) *)
    Nvm.Region.set_i64 region ~off:base n;
    List.iteri
      (fun i (c, v) ->
        Nvm.Region.set_i64 region ~off:(base + 8 + (16 * i)) c.addr;
        Nvm.Region.set_i64 region ~off:(base + 16 + (16 * i)) v)
      tx.writes;
    Pmem.writeback t.pm ~tid:tx.tid ~off:base ~len:(8 + (16 * n));
    (* Bulk data written inside the transaction goes through
       Mnemosyne's word-granular torn-bit log: every 8-byte word is
       instrumented and a full copy lands in the log before the home
       location, doubling the media volume. *)
    let log_data = ref (base + 8 + (16 * n)) in
    List.iter
      (fun (off, len) ->
        let words = (len + 7) / 8 in
        Util.Spin_wait.ns (15 * words);
        if !log_data + len <= base + t.log_capacity then begin
          let tmp = Bytes.create len in
          Nvm.Region.read region ~off ~dst:tmp ~dst_off:0 ~len;
          Nvm.Region.write region ~off:!log_data ~src:tmp ~src_off:0 ~len;
          Pmem.writeback t.pm ~tid:tx.tid ~off:!log_data ~len;
          log_data := !log_data + len
        end;
        Pmem.writeback t.pm ~tid:tx.tid ~off ~len)
      tx.data_ranges;
    Pmem.sfence t.pm ~tid:tx.tid;
    (* 2. apply writes home and persist them (second fence) *)
    List.iter
      (fun (c, v) ->
        c.value <- v;
        Atomic.incr c.version;
        Nvm.Region.set_i64 region ~off:(t.cell_base + (8 * c.addr)) v;
        Pmem.writeback t.pm ~tid:tx.tid ~off:(t.cell_base + (8 * c.addr)) ~len:8)
      tx.writes;
    (* 3. truncate the log *)
    Nvm.Region.set_i64 region ~off:base 0;
    Pmem.writeback t.pm ~tid:tx.tid ~off:base ~len:8;
    Pmem.sfence t.pm ~tid:tx.tid
  end;
  release_locks tx

(* Run [f tx] with retry-on-abort. *)
let atomically t ~tid f =
  let b = Util.Backoff.create () in
  let rec attempt () =
    let tx = tx_begin ~tid in
    match f tx with
    | result ->
        (try
           tx_commit t tx;
           result
         with Abort ->
           Util.Backoff.once b;
           attempt ())
    | exception Abort ->
        tx_abort tx;
        Util.Backoff.once b;
        attempt ()
  in
  attempt ()

(* ---- queue over the STM ---- *)

module Queue = struct
  (* Word layout: word 0 = head+1, word 1 = tail+1; nodes are 2 words:
     [next+1 | data_block+1], allocated from a bump cursor. *)

  type q = { stm : t; bump : int Atomic.t; free : int list ref array }

  let create stm =
    { stm; bump = Atomic.make 2; free = Array.init (Array.length stm.log_base) (fun _ -> ref []) }

  let alloc_node q ~tid =
    match !(q.free.(tid)) with
    | w :: rest ->
        q.free.(tid) := rest;
        w
    | [] ->
        let w = Atomic.fetch_and_add q.bump 2 in
        if w + 2 > q.stm.words then
          (failwith "Mnemosyne.Queue: word space exhausted" [@montage.allow "R4: simulated-capacity limit of the baseline; intentionally fatal so a benchmark misconfiguration cannot masquerade as a result"]);
        w

  let enqueue q ~tid value =
    (* allocate once outside the retry loop so aborts don't leak *)
    let blk = ref (-1) and node = ref (-1) in
    atomically q.stm ~tid (fun tx ->
        if !node < 0 then node := alloc_node q ~tid;
        let w = !node in
        if !blk < 0 then blk := Pmem.write_block q.stm.pm ~tid ~data:value;
        tx_track_data tx ~off:!blk ~len:(4 + String.length value);
        tx_write q.stm tx w 0;
        tx_write q.stm tx (w + 1) (!blk + 1);
        let tail = tx_read q.stm tx 1 - 1 in
        if tail < 0 then begin
          tx_write q.stm tx 0 (w + 1);
          tx_write q.stm tx 1 (w + 1)
        end
        else begin
          tx_write q.stm tx tail (w + 1);
          tx_write q.stm tx 1 (w + 1)
        end)

  let dequeue q ~tid =
    let result =
      atomically q.stm ~tid (fun tx ->
          let head = tx_read q.stm tx 0 - 1 in
          if head < 0 then None
          else begin
            let next = tx_read q.stm tx head in
            let blk = tx_read q.stm tx (head + 1) - 1 in
            tx_write q.stm tx 0 next;
            if next = 0 then tx_write q.stm tx 1 0;
            Some (head, blk)
          end)
    in
    match result with
    | None -> None
    | Some (w, blk) ->
        let value = Pmem.read_block q.stm.pm ~off:blk in
        Pmem.free q.stm.pm ~tid blk;
        q.free.(tid) := w :: !(q.free.(tid));
        Some value
end

(* ---- hashmap over the STM ---- *)

module Map = struct
  (* Word-space layout: words [0, nbuckets) are bucket heads holding
     (node_word + 1).  Node words are allocated from a bump cursor in
     word space, 3 words per node: [next+1 | key_block+1 | val_block+1].
     Blocks are Pmem string blocks written inside the transaction. *)

  type m = {
    stm : t;
    nbuckets : int;
    bump : int Atomic.t; (* next free word *)
    free_nodes : int list ref array; (* per-thread node free lists *)
    size : int Atomic.t;
  }

  let create ?(buckets = 1 lsl 10) stm =
    {
      stm;
      nbuckets = buckets;
      bump = Atomic.make buckets;
      free_nodes = Array.init (Array.length stm.log_base) (fun _ -> ref []);
      size = Atomic.make 0;
    }

  let size m = Atomic.get m.size
  let bucket_of m key = Hashtbl.hash key land (m.nbuckets - 1)

  let alloc_node m ~tid =
    match !(m.free_nodes.(tid)) with
    | w :: rest ->
        m.free_nodes.(tid) := rest;
        w
    | [] ->
        let w = Atomic.fetch_and_add m.bump 3 in
        if w + 3 > m.stm.words then
          (failwith "Mnemosyne.Map: word space exhausted" [@montage.allow "R4: simulated-capacity limit of the baseline; intentionally fatal so a benchmark misconfiguration cannot masquerade as a result"]);
        w

  let free_node m ~tid w = m.free_nodes.(tid) := w :: !(m.free_nodes.(tid))

  let read_block m off = Pmem.read_block m.stm.pm ~off

  let get m ~tid key =
    atomically m.stm ~tid (fun tx ->
        let rec find w =
          if w < 0 then None
          else
            let kblk = tx_read m.stm tx (w + 1) - 1 in
            if String.equal (read_block m kblk) key then
              Some (read_block m (tx_read m.stm tx (w + 2) - 1))
            else find (tx_read m.stm tx w - 1)
        in
        find (tx_read m.stm tx (bucket_of m key) - 1))

  let put m ~tid key value =
    let outcome =
      atomically m.stm ~tid (fun tx ->
          let b = bucket_of m key in
          let head = tx_read m.stm tx b - 1 in
          let rec find w =
            if w < 0 then None
            else
              let kblk = tx_read m.stm tx (w + 1) - 1 in
              if String.equal (read_block m kblk) key then Some w
              else find (tx_read m.stm tx w - 1)
          in
          match find head with
          | Some w ->
              let old_vblk = tx_read m.stm tx (w + 2) - 1 in
              let old = read_block m old_vblk in
              let vblk = Pmem.write_block m.stm.pm ~tid ~data:value in
              tx_track_data tx ~off:vblk ~len:(4 + String.length value);
              tx_write m.stm tx (w + 2) (vblk + 1);
              `Updated (old, old_vblk)
          | None ->
              let w = alloc_node m ~tid in
              let kblk = Pmem.write_block m.stm.pm ~tid ~data:key in
              let vblk = Pmem.write_block m.stm.pm ~tid ~data:value in
              tx_track_data tx ~off:kblk ~len:(4 + String.length key);
              tx_track_data tx ~off:vblk ~len:(4 + String.length value);
              tx_write m.stm tx w (head + 1);
              tx_write m.stm tx (w + 1) (kblk + 1);
              tx_write m.stm tx (w + 2) (vblk + 1);
              tx_write m.stm tx b (w + 1);
              `Inserted)
    in
    match outcome with
    | `Updated (old, old_vblk) ->
        Pmem.free m.stm.pm ~tid old_vblk;
        Some old
    | `Inserted ->
        Atomic.incr m.size;
        None

  let remove m ~tid key =
    let outcome =
      atomically m.stm ~tid (fun tx ->
          let b = bucket_of m key in
          let rec walk prev w =
            if w < 0 then `Missing
            else
              let kblk = tx_read m.stm tx (w + 1) - 1 in
              if String.equal (read_block m kblk) key then begin
                let next = tx_read m.stm tx w in
                let vblk = tx_read m.stm tx (w + 2) - 1 in
                let old = read_block m vblk in
                (match prev with
                | None -> tx_write m.stm tx b next
                | Some p -> tx_write m.stm tx p next);
                `Removed (old, w, kblk, vblk)
              end
              else walk (Some w) (tx_read m.stm tx w - 1)
          in
          walk None (tx_read m.stm tx b - 1))
    in
    match outcome with
    | `Missing -> None
    | `Removed (old, w, kblk, vblk) ->
        free_node m ~tid w;
        Pmem.free m.stm.pm ~tid kblk;
        Pmem.free m.stm.pm ~tid vblk;
        Atomic.decr m.size;
        Some old
end
