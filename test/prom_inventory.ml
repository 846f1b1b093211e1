(* Prometheus text reduced to what must not drift between releases: every
   TYPE line and, per sample, its family, labels and value.  Values that
   depend on timing are masked: bucket lines other than [+Inf] are dropped
   (which power-of-two bucket a duration lands in varies run to run), and
   histogram sums and the samples of the [timed] families read "_". *)
let normalise ?(timed = []) text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" then None
         else if line.[0] = '#' then Some line
         else
           let sp = String.rindex line ' ' in
           let head = String.sub line 0 sp in
           let family =
             match String.index_opt head '{' with
             | Some i -> String.sub head 0 i
             | None -> head
           in
           if
             String.ends_with ~suffix:"_bucket" family
             && not (String.ends_with ~suffix:"le=\"+Inf\"}" head)
           then None
           else if String.ends_with ~suffix:"_sum" family || List.mem family timed
           then Some (head ^ " _")
           else Some line)

let check ?timed label expected text =
  Alcotest.(check (list string)) label expected (normalise ?timed text)
