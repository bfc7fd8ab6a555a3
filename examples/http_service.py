"""Serve a two-lake workspace over HTTP and drive it with the client.

The deployable spelling of the serving guide: mount two lakes into a
:class:`repro.Workspace`, boot the :mod:`repro.serving.http` front-end
over it (in-process here, on an ephemeral port — operationally this is
what ``domainnet serve zoo/ cars/`` does), then act as its own first
client:

* list the mounted lakes with ``GET /lakes``;
* ``POST /lakes/<name>/detect`` against each lake — the second
  request to the same lake is served from its score cache;
* run an *async* detection (``?async=1``) and poll ``GET /jobs/<id>``
  to its terminal state;
* walk a gzip-compressed ``GET /lakes/<name>/ranking/<measure>`` with
  cursor pagination;
* mutate one lake through its namespaced ``/tables`` route and watch
  only that lake's caches invalidate;
* read the merged ``GET /stats`` and drain the server cleanly.

Run with:  python examples/http_service.py
"""

from repro import DataLake, HomographClient, Table, Workspace, start_server

ZOO_TABLES = {
    "T1_donations": {
        "Donor": ["Google", "Volkswagen", "BMW", "Amazon"],
        "At Risk": ["Panda", "Puma", "Jaguar", "Pelican"],
    },
    "T2_zoos": {
        "name": ["Panda", "Panda", "Lemur", "Jaguar"],
        "locale": ["Memphis", "Atlanta", "National", "San Diego"],
    },
    "T4_companies": {
        "Name": ["Jaguar", "Puma", "Apple", "Toyota"],
        "Revenue": ["25.80", "4.64", "456", "123"],
    },
}

CAR_TABLES = {
    "makers": {
        "maker": ["Jaguar", "Toyota", "Fiat", "Jaguar"],
        "model": ["XE", "Prius", "500", "XJ"],
    },
    "dealers": {
        "city": ["Memphis", "Austin", "Memphis"],
        "brand": ["Toyota", "Fiat", "Jaguar"],
    },
}


def lake_from(tables: dict) -> DataLake:
    return DataLake(
        Table.from_columns(name, columns)
        for name, columns in tables.items()
    )


def main() -> None:
    workspace = Workspace()
    workspace.attach("zoo", lake_from(ZOO_TABLES))
    workspace.attach("cars", lake_from(CAR_TABLES))
    with start_server(workspace, port=0) as server:
        print(f"serving on {server.url}")
        client = HomographClient(server.url)
        client.wait_ready()

        listing = client.lakes()
        print(f"lakes: {[lake['name'] for lake in listing['lakes']]}")

        zoo, cars = client.lake("zoo"), client.lake("cars")
        first = zoo.detect(measure="betweenness")
        again = zoo.detect(measure="betweenness")
        print(f"zoo top-3 by betweenness: {first.top_values(3)}")
        print(f"second zoo request cached: {again.cached}")

        job_id = cars.submit(measure="lcc")
        async_response = client.wait(job_id, timeout=60.0)
        state = client.poll(job_id)["state"]
        print(f"async cars job {job_id[:8]}…: {state}, "
              f"top-2 {async_response.top_values(2)}")

        walked = list(zoo.iter_ranking("betweenness", limit=2))
        assert walked == list(first.ranking), "pagination mismatch"
        print(f"paged zoo traversal: {len(walked)} entries, no gaps")

        cars.add_table(Table.from_columns(
            "lots", {"lot": ["A1", "A2"], "brand": ["Fiat", "Fiat"]},
        ))
        mutated = cars.detect(measure="lcc")
        untouched = zoo.detect(measure="betweenness")
        print(f"after POST /lakes/cars/tables: cars cached="
              f"{mutated.cached}, zoo cached={untouched.cached}")

        stats = client.stats()
        print(f"stats: {stats['http']['served']} responses served, "
              f"lakes {sorted(stats['lakes'])}, "
              f"jobs {stats['jobs']['states']}")
    print(f"drained; workspace closed: {workspace.closed}")


if __name__ == "__main__":
    main()
