class ExecutionContext:
    def __init__(self, client):
        self.client = client

    def fetch_doc(self, bucket, key):
        """The one-line wrapper: a point lookup per call."""
        return self.client.get(bucket, key)

    def fetch_docs(self, bucket, keys):
        """Its batched twin: one call serves the whole batch."""
        return self.client.multi_get(bucket, keys)
